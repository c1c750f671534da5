package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/exception"
	"repro/internal/ident"
	"repro/internal/netsim"
)

// TestRunWithWireEncoding runs a resolution with every protocol message
// serialised to the binary wire format: the outcome must be identical to the
// in-memory run.
func TestRunWithWireEncoding(t *testing.T) {
	sys := NewServer(Options{WireEncoding: true})
	defer sys.Close()
	members := []ident.ObjectID{1, 2, 3}
	def := Definition{
		Spec: ActionSpec{
			Name: "wired", Tree: exception.AircraftTree(), Members: members,
			Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error { ctx.Raise("left_engine_exception"); return nil },
			2: func(ctx *Context) error { ctx.Sleep(time.Hour); return nil },
			3: func(ctx *Context) error { ctx.Sleep(time.Hour); return nil },
		},
	}
	out, err := sys.Run(def)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, recordOf(err))
	}
	if !out.Completed || out.Resolved != "left_engine_exception" {
		t.Errorf("outcome = %+v", out)
	}
}

// TestRunOverLossyNetworkWithReliableTransport drives a full resolution over
// a network that drops 20% and duplicates 10% of messages; the R3 transport
// (retransmission + dedup) must make the protocol behave exactly as on a
// reliable network.
func TestRunOverLossyNetworkWithReliableTransport(t *testing.T) {
	sys := NewServer(Options{
		Network:    netsim.Config{DropRate: 0.20, DupRate: 0.10, Seed: 42},
		Transport:  TransportReliable,
		Retransmit: time.Millisecond,
	})
	defer sys.Close()
	members := []ident.ObjectID{1, 2, 3, 4}
	var handled sync.Map
	hs := HandlerSet{Default: func(rctx *RecoveryContext, resolved exception.Exception) (string, error) {
		handled.Store(rctx.Object, resolved.Name)
		return "", nil
	}}
	def := Definition{
		Spec: ActionSpec{
			Name: "lossy", Tree: exception.AircraftTree(), Members: members,
			Handlers: uniformHandlers(members, hs),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error { ctx.Raise("left_engine_exception"); return nil },
			2: func(ctx *Context) error { ctx.Raise("right_engine_exception"); return nil },
			3: func(ctx *Context) error { ctx.Sleep(time.Hour); return nil },
			4: func(ctx *Context) error { ctx.Sleep(time.Hour); return nil },
		},
	}
	out, err := sys.RunTimeout(def, 30*time.Second)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !out.Completed || out.Resolved == "" {
		t.Fatalf("outcome = %+v", out)
	}
	count := 0
	handled.Range(func(_, v any) bool {
		count++
		if v != out.Resolved {
			t.Errorf("handler saw %v, outcome %q", v, out.Resolved)
		}
		return true
	})
	if count != len(members) {
		t.Errorf("handlers ran in %d/%d objects", count, len(members))
	}
	stats := sys.NetworkStats()
	if stats.Dropped == 0 {
		t.Error("fault injection inactive: no messages were dropped")
	}
}

// TestNoGoroutineLeaks: repeated runs must not leak goroutines after Close.
func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		sys := NewServer(Options{})
		members := []ident.ObjectID{1, 2, 3}
		def := Definition{
			Spec: ActionSpec{
				Name: "leakcheck", Tree: testTree("fault"), Members: members,
				Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
			},
			Bodies: map[ident.ObjectID]Body{
				1: func(ctx *Context) error { ctx.Raise("fault"); return nil },
				2: func(ctx *Context) error { ctx.Sleep(time.Hour); return nil },
				3: func(ctx *Context) error { return nil },
			},
		}
		if _, err := sys.Run(def); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		sys.Close()
	}
	// Allow the runtime to settle, then compare.
	deadline := time.After(2 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		select {
		case <-deadline:
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: before=%d after=%d\n%s", before, after, buf[:n])
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// TestSiblingNestedActionsIndependentResolutions: two disjoint nested
// actions recover independently and concurrently; neither disturbs the other
// nor the containing action.
func TestSiblingNestedActionsIndependentResolutions(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1, 2, 3, 4}
	left := &ActionSpec{
		Name: "left", Tree: testTree("lf"), Members: []ident.ObjectID{1, 2},
		Handlers: uniformHandlers([]ident.ObjectID{1, 2}, defaultOnly(noopHandler)),
	}
	right := &ActionSpec{
		Name: "right", Tree: testTree("rf"), Members: []ident.ObjectID{3, 4},
		Handlers: uniformHandlers([]ident.ObjectID{3, 4}, defaultOnly(noopHandler)),
	}
	mkBody := func(spec *ActionSpec, raiser bool, exc string) Body {
		return func(ctx *Context) error {
			res, err := ctx.Enclose(spec, func(n *Context) error {
				if raiser {
					n.Raise(exc)
				}
				n.Sleep(time.Hour)
				return nil
			})
			if err != nil {
				return err
			}
			if res.Resolved != exc {
				return fmt.Errorf("resolved %q, want %q", res.Resolved, exc)
			}
			return nil
		}
	}
	def := Definition{
		Spec: ActionSpec{
			Name: "outer", Tree: testTree("of"), Members: members,
			Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
		},
		Bodies: map[ident.ObjectID]Body{
			1: mkBody(left, true, "lf"),
			2: mkBody(left, false, "lf"),
			3: mkBody(right, true, "rf"),
			4: mkBody(right, false, "rf"),
		},
	}
	out, err := sys.Run(def)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, recordOf(err))
	}
	if !out.Completed || out.Resolved != "" {
		t.Errorf("outer outcome = %+v (sibling recoveries must be invisible)", out)
	}
}

// TestSequentialNestedActions: the same participants run several nested
// actions one after another, some recovering, within one containing action.
func TestSequentialNestedActions(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1, 2}
	specs := make([]*ActionSpec, 3)
	for i := range specs {
		specs[i] = &ActionSpec{
			Name: fmt.Sprintf("step%d", i), Tree: testTree("sf"), Members: members,
			Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
		}
	}
	body := func(raiser bool) Body {
		return func(ctx *Context) error {
			for i, spec := range specs {
				wantResolved := ""
				res, err := ctx.Enclose(spec, func(n *Context) error {
					if err := n.Write(fmt.Sprintf("step%d", i), n.Object().String()); err != nil {
						return err
					}
					if raiser && i == 1 {
						n.Raise("sf")
					}
					if !raiser && i == 1 {
						n.Sleep(time.Hour)
					}
					return nil
				})
				if err != nil {
					return err
				}
				if i == 1 {
					wantResolved = "sf"
				}
				if res.Resolved != wantResolved {
					return fmt.Errorf("step %d resolved %q, want %q", i, res.Resolved, wantResolved)
				}
			}
			return nil
		}
	}
	def := Definition{
		Spec: ActionSpec{
			Name: "pipeline", Tree: testTree("of"), Members: members,
			Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
		},
		Bodies: map[ident.ObjectID]Body{1: body(true), 2: body(false)},
	}
	out, err := sys.Run(def)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, recordOf(err))
	}
	if !out.Completed {
		t.Fatalf("outcome = %+v", out)
	}
	snap := sys.Store().Snapshot()
	for i := 0; i < 3; i++ {
		if _, ok := snap[fmt.Sprintf("step%d", i)]; !ok {
			t.Errorf("step%d write missing (committed nested txns)", i)
		}
	}
}

// TestUndeclaredExceptionFallsBackToRoot: raising a name outside the tree
// cannot crash the run; the resolution falls back to the universal exception.
func TestUndeclaredExceptionFallsBackToRoot(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1, 2}
	var resolved sync.Map
	hs := HandlerSet{Default: func(rctx *RecoveryContext, r exception.Exception) (string, error) {
		resolved.Store(rctx.Object, r.Name)
		return "", nil
	}}
	def := Definition{
		Spec: ActionSpec{
			Name: "oops", Tree: testTree("declared"), Members: members,
			Handlers: uniformHandlers(members, hs),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error { ctx.Raise("never_declared"); return nil },
			2: func(ctx *Context) error { ctx.Sleep(time.Hour); return nil },
		},
	}
	out, err := sys.Run(def)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !out.Completed || out.Resolved != "universal" {
		t.Errorf("outcome = %+v, want resolution to fall back to the root", out)
	}
}

// TestContextAwait: Await returns channel values and remains interruptible.
func TestContextAwait(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1, 2}
	feed := make(chan any, 1)
	def := Definition{
		Spec: ActionSpec{
			Name: "await", Tree: testTree("f"), Members: members,
			Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error {
				v, ok := ctx.Await(feed)
				if !ok || v.(int) != 41 {
					return errors.New("await got wrong value")
				}
				return ctx.Write("got", v.(int)+1)
			},
			2: func(ctx *Context) error {
				ctx.Sleep(2 * time.Millisecond)
				feed <- 41
				return nil
			},
		},
	}
	out, err := sys.Run(def)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !out.Completed || sys.Store().Snapshot()["got"] != 42 {
		t.Errorf("outcome = %+v store=%v", out, sys.Store().Snapshot())
	}
}

// TestAwaitInterruptedByResolution: a body blocked in Await is terminated
// when an exception is resolved.
func TestAwaitInterruptedByResolution(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1, 2}
	never := make(chan any)
	def := Definition{
		Spec: ActionSpec{
			Name: "await-int", Tree: testTree("f"), Members: members,
			Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error {
				_, _ = ctx.Await(never) // must be interrupted
				return errors.New("await returned without a send")
			},
			2: func(ctx *Context) error {
				ctx.Sleep(2 * time.Millisecond)
				ctx.Raise("f")
				return nil
			},
		},
	}
	out, err := sys.Run(def)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !out.Completed || out.Resolved != "f" {
		t.Errorf("outcome = %+v", out)
	}
}

// TestRunTimeoutCancelsCleanly: a deadlocked workload is cancelled and all
// participants report ErrCancelled without leaking goroutines.
func TestRunTimeoutCancelsCleanly(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1, 2}
	blocked := make(chan any)
	def := Definition{
		Spec: ActionSpec{
			Name: "stuck", Tree: testTree("f"), Members: members,
			Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error { _, _ = ctx.Await(blocked); return nil },
			2: func(ctx *Context) error { _, _ = ctx.Await(blocked); return nil },
		},
	}
	out, err := sys.RunTimeout(def, 50*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	for obj, res := range out.PerObject {
		if !errors.Is(res.Err, ErrCancelled) {
			t.Errorf("%s err = %v, want ErrCancelled", obj, res.Err)
		}
	}
}
