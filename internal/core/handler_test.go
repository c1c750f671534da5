package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exception"
	"repro/internal/ident"
	"repro/internal/vclock"
)

// TestHandlerErrorCancelsRun: a handler returning a non-nil error is a
// programming failure; the run is torn down and the error surfaces.
func TestHandlerErrorCancelsRun(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1, 2}
	boom := errors.New("handler exploded")
	hs := HandlerSet{Default: func(rctx *RecoveryContext, _ exception.Exception) (string, error) {
		if rctx.Object == 1 {
			return "", boom
		}
		return "", nil
	}}
	def := Definition{
		Spec: ActionSpec{
			Name: "hfail", Tree: testTree("f"), Members: members,
			Handlers: uniformHandlers(members, hs),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error { ctx.Raise("f"); return nil },
			2: func(ctx *Context) error { ctx.Sleep(time.Hour); return nil },
		},
	}
	out, err := sys.Run(def)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the handler error", err)
	}
	if out.Completed {
		t.Error("run must not complete after a handler error")
	}
}

// TestHandlerSignalDifferentPerParticipant: participants' handlers may
// signal different exceptions; the containing action resolves their cover.
func TestHandlerSignalDifferentPerParticipant(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1, 2}
	tree := exception.NewBuilder("u").
		Add("inner_fault", "u").
		Add("sigA", "u").
		Add("sigB", "u").
		MustBuild()
	innerHS := func(signal string) HandlerSet {
		return HandlerSet{Default: func(*RecoveryContext, exception.Exception) (string, error) {
			return signal, nil
		}}
	}
	nested := &ActionSpec{
		Name: "inner", Tree: tree, Members: members,
		Handlers: map[ident.ObjectID]HandlerSet{
			1: innerHS("sigA"),
			2: innerHS("sigB"),
		},
	}
	var outerResolved sync.Map
	outerHS := HandlerSet{Default: func(rctx *RecoveryContext, r exception.Exception) (string, error) {
		outerResolved.Store(rctx.Object, r.Name)
		return "", nil
	}}
	def := Definition{
		Spec: ActionSpec{
			Name: "outer", Tree: tree, Members: members,
			Handlers: uniformHandlers(members, outerHS),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error {
				_, err := ctx.Enclose(nested, func(n *Context) error {
					n.Raise("inner_fault")
					return nil
				})
				return err
			},
			2: func(ctx *Context) error {
				_, err := ctx.Enclose(nested, func(n *Context) error {
					n.Sleep(time.Hour)
					return nil
				})
				return err
			},
		},
	}
	out, err := sys.Run(def)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, recordOf(err))
	}
	// sigA and sigB are raised concurrently in the outer action: the
	// resolution must cover both -> "u". (One may arrive first and suppress
	// the other, in which case a single signal name is also valid.)
	switch out.Resolved {
	case "u", "sigA", "sigB":
	default:
		t.Errorf("outer resolved %q", out.Resolved)
	}
	outerResolved.Range(func(_, v any) bool {
		if v != out.Resolved {
			t.Errorf("handler saw %v, outcome %q", v, out.Resolved)
		}
		return true
	})
}

// TestNestedAfterRecovery: after a resolution recovers the outer action, the
// handler's continuation is the completion barrier — but a FRESH top-level
// run on the same system can nest again; exercises engine reuse of
// suspension state across runs.
func TestNestedAfterRecovery(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1, 2}
	nested := &ActionSpec{
		Name: "inner", Tree: testTree("nf"), Members: members,
		Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
	}
	// Run 1: nested action resolves an exception; outer completes.
	def1 := Definition{
		Spec: ActionSpec{
			Name: "first", Tree: testTree("of"), Members: members,
			Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error {
				res, err := ctx.Enclose(nested, func(n *Context) error {
					n.Raise("nf")
					return nil
				})
				if err != nil {
					return err
				}
				if res.Resolved != "nf" {
					return errors.New("nested not recovered")
				}
				// A second nested action after the first recovered: the
				// suspension from the nested resolution must not leak.
				again := &ActionSpec{
					Name: "inner2", Tree: testTree("nf2"), Members: []ident.ObjectID{1},
					Handlers: map[ident.ObjectID]HandlerSet{1: defaultOnly(noopHandler)},
				}
				res2, err := ctx.Enclose(again, func(n *Context) error {
					return n.Write("second", true)
				})
				if err != nil || !res2.Completed {
					return errors.New("second nested action failed")
				}
				return nil
			},
			2: func(ctx *Context) error {
				_, err := ctx.Enclose(nested, func(n *Context) error {
					n.Sleep(time.Hour)
					return nil
				})
				return err
			},
		},
	}
	out, err := sys.Run(def1)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, recordOf(err))
	}
	if !out.Completed {
		t.Fatalf("outcome = %+v", out)
	}
	if sys.Store().Snapshot()["second"] != true {
		t.Error("post-recovery nested action did not commit")
	}
}

// TestAbortionHandlerReadsParentTxn: abortion handlers run against the
// containing action's transactional view, after the nested transaction
// rolled back.
func TestAbortionHandlerReadsParentTxn(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1, 2}
	var observed any
	var mu sync.Mutex
	nested := &ActionSpec{
		Name: "inner", Tree: testTree("nf"), Members: []ident.ObjectID{2},
		Handlers: map[ident.ObjectID]HandlerSet{2: defaultOnly(noopHandler)},
		Abortion: map[ident.ObjectID]AbortionHandler{
			2: func(rctx *RecoveryContext) string {
				v, err := rctx.View.Read("outer-key")
				mu.Lock()
				if err == nil {
					observed = v
				} else {
					observed = err
				}
				mu.Unlock()
				// Record the incident in the surviving (outer) transaction.
				_ = rctx.View.Write("incident", "logged")
				return ""
			},
		},
	}
	def := Definition{
		Spec: ActionSpec{
			Name: "outer", Tree: testTree("of"), Members: members,
			Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error {
				if err := ctx.Write("outer-key", "visible"); err != nil {
					return err
				}
				ctx.Sleep(10 * time.Millisecond)
				ctx.Raise("of")
				return nil
			},
			2: func(ctx *Context) error {
				_, err := ctx.Enclose(nested, func(n *Context) error {
					if err := n.Write("nested-key", "doomed"); err != nil {
						return err
					}
					n.Sleep(time.Hour)
					return nil
				})
				return err
			},
		},
	}
	out, err := sys.Run(def)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, recordOf(err))
	}
	if !out.Completed || out.Resolved != "of" {
		t.Fatalf("outcome = %+v", out)
	}
	mu.Lock()
	got := observed
	mu.Unlock()
	if got != "visible" {
		t.Errorf("abortion handler observed %v, want the outer write", got)
	}
	snap := sys.Store().Snapshot()
	if snap["incident"] != "logged" {
		t.Error("abortion handler's outer-txn write lost")
	}
	if _, ok := snap["nested-key"]; ok {
		t.Error("aborted nested write leaked")
	}
}

// TestBarrierWaitsForEveryHandler: a member whose body reached the completion
// barrier before a peer raised takes its arrival back when the resolution
// suspends it, so the barrier, and the acceptance test at it, waits for every
// member's handler. Members 2 to 4 finish their bodies at once; member 1
// raises once virtual time moves, that is once they are parked at the
// barrier. Their handlers are held until well after member 1's own handler has
// returned and its body has arrived.
func TestBarrierWaitsForEveryHandler(t *testing.T) {
	clk := vclock.NewVirtual()
	clk.StartAuto()
	defer clk.StopAuto()
	sys := NewServer(Options{Clock: clk})
	defer sys.Close()
	members := []ident.ObjectID{1, 2, 3, 4}
	gate := make(chan struct{})
	var handled atomic.Int32
	hs := HandlerSet{Default: func(rctx *RecoveryContext, _ exception.Exception) (string, error) {
		if rctx.Object == 1 {
			time.AfterFunc(20*time.Millisecond, func() { close(gate) })
			return "", nil
		}
		<-gate
		handled.Add(1)
		return "", rctx.View.Add("handled", 1)
	}}
	accepted := int32(-1)
	def := Definition{
		Spec: ActionSpec{
			Name: "barrier", Tree: testTree("f"), Members: members,
			Handlers: uniformHandlers(members, hs),
			AcceptanceTest: func(*TxnView) bool {
				accepted = handled.Load()
				return true
			},
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error { ctx.Sleep(time.Millisecond); ctx.Raise("f"); return nil },
			2: func(*Context) error { return nil },
			3: func(*Context) error { return nil },
			4: func(*Context) error { return nil },
		},
	}
	out, err := sys.Run(def)
	if err != nil || !out.Completed || out.Resolved != "f" {
		t.Fatalf("out=%+v err=%v", out, err)
	}
	if accepted != 3 {
		t.Errorf("the acceptance test ran after %d of 3 held handlers", accepted)
	}
	if got := sys.Store().Snapshot()["handled"]; got != 3 {
		t.Errorf("handled = %v, want 3", got)
	}
}
