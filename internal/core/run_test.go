package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/exception"
	"repro/internal/ident"
	"repro/internal/protocol"
)

// testTree builds a small tree with a universal root and flat children.
func testTree(children ...string) *exception.Tree {
	b := exception.NewBuilder("universal")
	for _, c := range children {
		b.Add(c, "universal")
	}
	return b.MustBuild()
}

// uniformHandlers gives every member the same handler set.
func uniformHandlers(members []ident.ObjectID, hs HandlerSet) map[ident.ObjectID]HandlerSet {
	out := make(map[ident.ObjectID]HandlerSet, len(members))
	for _, m := range members {
		out[m] = hs
	}
	return out
}

// noopHandler records nothing and completes the action.
func noopHandler(*RecoveryContext, exception.Exception) (string, error) { return "", nil }

func defaultOnly(h Handler) HandlerSet { return HandlerSet{Default: h} }

func newTestSystem(t *testing.T) *Server {
	t.Helper()
	sys := NewServer(Options{})
	t.Cleanup(sys.Close)
	return sys
}

func TestRunValidation(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1, 2}

	// Missing tree.
	def := Definition{Spec: ActionSpec{Name: "a", Members: members}}
	if _, err := sys.Run(def); !errors.Is(err, ErrNilTree) {
		t.Errorf("want ErrNilTree, got %v", err)
	}
	// No members.
	def = Definition{Spec: ActionSpec{Name: "a", Tree: testTree("e")}}
	if _, err := sys.Run(def); !errors.Is(err, ErrNoMembers) {
		t.Errorf("want ErrNoMembers, got %v", err)
	}
	// Handlers missing.
	def = Definition{Spec: ActionSpec{Name: "a", Tree: testTree("e"), Members: members}}
	if _, err := sys.Run(def); !errors.Is(err, ErrIncompleteHandlers) {
		t.Errorf("want ErrIncompleteHandlers, got %v", err)
	}
	// Incomplete named handlers without default.
	def = Definition{Spec: ActionSpec{
		Name: "a", Tree: testTree("e"), Members: members,
		Handlers: uniformHandlers(members, HandlerSet{ByName: map[string]Handler{"e": noopHandler}}),
	}}
	if _, err := sys.Run(def); !errors.Is(err, ErrIncompleteHandlers) {
		t.Errorf("want ErrIncompleteHandlers (tree not covered), got %v", err)
	}
	// Duplicate member.
	def = Definition{Spec: ActionSpec{
		Name: "a", Tree: testTree("e"), Members: []ident.ObjectID{1, 1},
		Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
	}}
	if _, err := sys.Run(def); !errors.Is(err, ErrDuplicateMember) {
		t.Errorf("want ErrDuplicateMember, got %v", err)
	}
	// Missing body.
	def = Definition{Spec: ActionSpec{
		Name: "a", Tree: testTree("e"), Members: members,
		Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
	}}
	if _, err := sys.Run(def); !errors.Is(err, ErrMissingBody) {
		t.Errorf("want ErrMissingBody, got %v", err)
	}
}

func TestRunNormalCompletion(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1, 2, 3}
	def := Definition{
		Spec: ActionSpec{
			Name: "compute", Tree: testTree("fault"), Members: members,
			Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error { return ctx.Write("a", 1) },
			2: func(ctx *Context) error { return ctx.Write("b", 2) },
			3: func(ctx *Context) error { ctx.Checkpoint(); return nil },
		},
	}
	out, err := sys.Run(def)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, recordOf(err))
	}
	if !out.Completed || out.Resolved != "" || out.Signalled != "" {
		t.Errorf("outcome = %+v", out)
	}
	snap := sys.Store().Snapshot()
	if snap["a"] != 1 || snap["b"] != 2 {
		t.Errorf("store = %v", snap)
	}
	// §4.4: no overhead when no exception is raised.
	for _, kind := range []string{
		protocol.KindException, protocol.KindAck, protocol.KindCommit,
		protocol.KindHaveNested, protocol.KindNestedCompleted,
	} {
		if n := sys.Trace().CountSends(kind); n != 0 {
			t.Errorf("%s sends = %d, want 0", kind, n)
		}
	}
}

func TestRunSingleException(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1, 2, 3}
	handled := make(chan ident.ObjectID, len(members))
	hs := HandlerSet{Default: func(rctx *RecoveryContext, resolved exception.Exception) (string, error) {
		if resolved.Name != "fault" {
			return "", errors.New("wrong resolved exception: " + resolved.Name)
		}
		handled <- rctx.Object
		return "", nil
	}}
	def := Definition{
		Spec: ActionSpec{
			Name: "compute", Tree: testTree("fault"), Members: members,
			Handlers: uniformHandlers(members, hs),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error { ctx.Raise("fault"); return nil },
			2: func(ctx *Context) error { ctx.Sleep(time.Hour); return nil },
			3: func(ctx *Context) error { ctx.Sleep(time.Hour); return nil },
		},
	}
	out, err := sys.Run(def)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, recordOf(err))
	}
	if !out.Completed || out.Resolved != "fault" || out.Signalled != "" {
		t.Errorf("outcome = %+v", out)
	}
	close(handled)
	count := 0
	for range handled {
		count++
	}
	if count != 3 {
		t.Errorf("handlers ran in %d objects, want 3", count)
	}
	// §4.4 case 1: exactly 3(N-1) protocol messages.
	total := 0
	for _, kind := range []string{
		protocol.KindException, protocol.KindAck, protocol.KindCommit,
		protocol.KindHaveNested, protocol.KindNestedCompleted,
	} {
		total += sys.Trace().CountSends(kind)
	}
	if total != 6 {
		t.Errorf("protocol messages = %d, want 6 (%s)", total, sys.Trace().CensusString())
	}
}

func TestRunConcurrentExceptionsResolve(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1, 2, 3}
	tree := exception.AircraftTree()
	resolvedName := make(chan string, len(members))
	hs := HandlerSet{Default: func(rctx *RecoveryContext, resolved exception.Exception) (string, error) {
		resolvedName <- resolved.Name
		return "", nil
	}}
	def := Definition{
		Spec: ActionSpec{
			Name: "fly", Tree: tree, Members: members,
			Handlers: uniformHandlers(members, hs),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error { ctx.Raise("left_engine_exception"); return nil },
			2: func(ctx *Context) error { ctx.Raise("right_engine_exception"); return nil },
			3: func(ctx *Context) error { ctx.Sleep(time.Hour); return nil },
		},
	}
	out, err := sys.Run(def)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, recordOf(err))
	}
	// Both raises may or may not both be accepted (one can arrive first and
	// suppress the other); either way the resolved exception must cover the
	// accepted set and all participants must agree.
	want := out.Resolved
	if want != "emergency_engine_loss_exception" &&
		want != "left_engine_exception" && want != "right_engine_exception" {
		t.Errorf("resolved = %q", want)
	}
	close(resolvedName)
	for name := range resolvedName {
		if name != want {
			t.Errorf("handler saw %q, chooser resolved %q", name, want)
		}
	}
}

func TestRunHandlerSignalsFailure(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1, 2}
	hs := HandlerSet{Default: func(rctx *RecoveryContext, resolved exception.Exception) (string, error) {
		return "universal", nil // signal failure to the caller
	}}
	def := Definition{
		Spec: ActionSpec{
			Name: "compute", Tree: testTree("fault"), Members: members,
			Handlers: uniformHandlers(members, hs),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error {
				if err := ctx.Write("x", 42); err != nil {
					return err
				}
				ctx.Raise("fault")
				return nil
			},
			2: func(ctx *Context) error { ctx.Sleep(time.Hour); return nil },
		},
	}
	out, err := sys.Run(def)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, recordOf(err))
	}
	if out.Signalled != "universal" {
		t.Errorf("signalled = %q, want universal", out.Signalled)
	}
	if out.Completed {
		t.Error("signalled action must not report Completed")
	}
	// The transaction was aborted: the write is gone.
	if _, ok := sys.Store().Snapshot()["x"]; ok {
		t.Error("aborted transaction leaked a write")
	}
}

func TestRunBodyErrorCancelsRun(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1, 2}
	boom := errors.New("boom")
	def := Definition{
		Spec: ActionSpec{
			Name: "compute", Tree: testTree("fault"), Members: members,
			Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error { return boom },
			2: func(ctx *Context) error { ctx.Sleep(time.Hour); return nil },
		},
	}
	out, err := sys.Run(def)
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if out.Completed {
		t.Error("run with failing body must not complete")
	}
}

func TestHandlerReceivesRecoveryView(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1, 2}
	// Forward recovery: the handler repairs the atomic object into a NEW
	// valid state rather than undoing it (Figure 2(a)).
	hs := HandlerSet{ByName: map[string]Handler{
		"fault": func(rctx *RecoveryContext, _ exception.Exception) (string, error) {
			if rctx.Object == 1 { // one participant repairs
				if err := rctx.View.Write("x", "repaired"); err != nil {
					return "", err
				}
			}
			return "", nil
		},
	}, Default: noopHandler}
	def := Definition{
		Spec: ActionSpec{
			Name: "compute", Tree: testTree("fault"), Members: members,
			Handlers: uniformHandlers(members, hs),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error {
				if err := ctx.Write("x", "broken"); err != nil {
					return err
				}
				ctx.Raise("fault")
				return nil
			},
			2: func(ctx *Context) error { ctx.Sleep(time.Hour); return nil },
		},
	}
	out, err := sys.Run(def)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, recordOf(err))
	}
	if !out.Completed || out.Resolved != "fault" {
		t.Fatalf("outcome = %+v", out)
	}
	if got := sys.Store().Snapshot()["x"]; got != "repaired" {
		t.Errorf("x = %v, want repaired (forward recovery commits new state)", got)
	}
}

func TestRunsAreIsolatedBetweenActions(t *testing.T) {
	// Two sequential top-level actions on one system compete for the same
	// atomic object; both commit their increments.
	sys := newTestSystem(t)
	members := []ident.ObjectID{1}
	mkDef := func() Definition {
		return Definition{
			Spec: ActionSpec{
				Name: "inc", Tree: testTree("fault"), Members: members,
				Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
			},
			Bodies: map[ident.ObjectID]Body{
				1: func(ctx *Context) error {
					cur := 0
					if v, err := ctx.Read("ctr"); err == nil {
						cur = v.(int)
					}
					return ctx.Write("ctr", cur+1)
				},
			},
		}
	}
	for i := 0; i < 3; i++ {
		out, err := sys.Run(mkDef())
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !out.Completed {
			t.Fatalf("run %d outcome: %+v", i, out)
		}
	}
	if got := sys.Store().Snapshot()["ctr"]; got != 3 {
		t.Errorf("ctr = %v, want 3", got)
	}
}
