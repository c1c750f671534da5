package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exception"
	"repro/internal/ident"
	"repro/internal/vclock"
)

func TestNestedActionNormalCompletion(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1, 2, 3}
	inner := []ident.ObjectID{2, 3}
	nested := &ActionSpec{
		Name: "inner", Tree: testTree("ifault"), Members: inner,
		Handlers: uniformHandlers(inner, defaultOnly(noopHandler)),
	}
	def := Definition{
		Spec: ActionSpec{
			Name: "outer", Tree: testTree("ofault"), Members: members,
			Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error { return ctx.Write("outer", "o") },
			2: func(ctx *Context) error {
				res, err := ctx.Enclose(nested, func(nctx *Context) error {
					return nctx.Write("inner", "i")
				})
				if err != nil {
					return err
				}
				if !res.Completed {
					return errors.New("nested did not complete")
				}
				// The nested write is visible in the containing action after
				// the nested transaction committed into the parent.
				v, err := ctx.Read("inner")
				if err != nil || v != "i" {
					return errors.New("nested write not visible in parent")
				}
				return nil
			},
			3: func(ctx *Context) error {
				_, err := ctx.Enclose(nested, func(nctx *Context) error { return nil })
				return err
			},
		},
	}
	out, err := sys.Run(def)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, recordOf(err))
	}
	if !out.Completed {
		t.Fatalf("outcome = %+v", out)
	}
	snap := sys.Store().Snapshot()
	if snap["outer"] != "o" || snap["inner"] != "i" {
		t.Errorf("store = %v", snap)
	}
}

func TestNestedResolutionDoesNotDisturbOuter(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1, 2, 3}
	inner := []ident.ObjectID{2, 3}
	var outerHandlerRan sync.Map
	nested := &ActionSpec{
		Name: "inner", Tree: testTree("ifault"), Members: inner,
		Handlers: uniformHandlers(inner, defaultOnly(noopHandler)),
	}
	outerHS := HandlerSet{Default: func(rctx *RecoveryContext, resolved exception.Exception) (string, error) {
		outerHandlerRan.Store(rctx.Object, true)
		return "", nil
	}}
	def := Definition{
		Spec: ActionSpec{
			Name: "outer", Tree: testTree("ofault"), Members: members,
			Handlers: uniformHandlers(members, outerHS),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error { return nil },
			2: func(ctx *Context) error {
				res, err := ctx.Enclose(nested, func(nctx *Context) error {
					nctx.Raise("ifault")
					return nil
				})
				if err != nil {
					return err
				}
				if res.Resolved != "ifault" {
					return errors.New("nested resolution missing: " + res.Resolved)
				}
				return nil
			},
			3: func(ctx *Context) error {
				res, err := ctx.Enclose(nested, func(nctx *Context) error {
					nctx.Sleep(time.Hour)
					return nil
				})
				if err != nil {
					return err
				}
				if res.Resolved != "ifault" {
					return errors.New("nested resolution missing at O3")
				}
				return nil
			},
		},
	}
	out, err := sys.Run(def)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, recordOf(err))
	}
	if !out.Completed || out.Resolved != "" {
		t.Fatalf("outer outcome = %+v (nested recovery must be invisible)", out)
	}
	count := 0
	outerHandlerRan.Range(func(_, _ any) bool { count++; return true })
	if count != 0 {
		t.Errorf("outer handlers ran %d times, want 0", count)
	}
}

func TestNestedSignalPropagatesToOuter(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1, 2, 3}
	inner := []ident.ObjectID{2, 3}
	innerHS := HandlerSet{Default: func(*RecoveryContext, exception.Exception) (string, error) {
		return "ofault", nil // handlers cannot recover: signal to the outer action
	}}
	nested := &ActionSpec{
		Name: "inner", Tree: testTree("ifault"), Members: inner,
		Handlers: uniformHandlers(inner, innerHS),
	}
	var outerResolved sync.Map
	outerHS := HandlerSet{Default: func(rctx *RecoveryContext, resolved exception.Exception) (string, error) {
		outerResolved.Store(rctx.Object, resolved.Name)
		return "", nil
	}}
	def := Definition{
		Spec: ActionSpec{
			Name: "outer", Tree: testTree("ofault"), Members: members,
			Handlers: uniformHandlers(members, outerHS),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error { ctx.Sleep(time.Hour); return nil },
			2: func(ctx *Context) error {
				_, err := ctx.Enclose(nested, func(nctx *Context) error {
					nctx.Raise("ifault")
					return nil
				})
				return err // unreachable: the signal path unwinds
			},
			3: func(ctx *Context) error {
				_, err := ctx.Enclose(nested, func(nctx *Context) error {
					nctx.Sleep(time.Hour)
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
	if !out.Completed || out.Resolved != "ofault" {
		t.Fatalf("outcome = %+v, want resolved ofault", out)
	}
	for _, o := range members {
		v, ok := outerResolved.Load(o)
		if !ok || v != "ofault" {
			t.Errorf("outer handler at %s saw %v", o, v)
		}
	}
}

// TestOuterExceptionAbortsNested is Figure 1(b): an exception in the
// containing action aborts the nested action; abortion handlers run and the
// nested transaction is rolled back.
func TestOuterExceptionAbortsNested(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1, 2, 3}
	inner := []ident.ObjectID{2, 3}
	var aborted sync.Map
	nested := &ActionSpec{
		Name: "inner", Tree: testTree("ifault"), Members: inner,
		Handlers: uniformHandlers(inner, defaultOnly(noopHandler)),
		Abortion: map[ident.ObjectID]AbortionHandler{
			2: func(rctx *RecoveryContext) string { aborted.Store(ident.ObjectID(2), true); return "" },
			3: func(rctx *RecoveryContext) string { aborted.Store(ident.ObjectID(3), true); return "" },
		},
	}
	var outerResolved sync.Map
	outerHS := HandlerSet{Default: func(rctx *RecoveryContext, resolved exception.Exception) (string, error) {
		outerResolved.Store(rctx.Object, resolved.Name)
		return "", nil
	}}
	def := Definition{
		Spec: ActionSpec{
			Name: "outer", Tree: testTree("ofault"), Members: members,
			Handlers: uniformHandlers(members, outerHS),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error {
				ctx.Sleep(5 * time.Millisecond) // let 2 and 3 enter the nested action
				ctx.Raise("ofault")
				return nil
			},
			2: func(ctx *Context) error {
				_, err := ctx.Enclose(nested, func(nctx *Context) error {
					if err := nctx.Write("nested-data", 1); err != nil {
						return err
					}
					nctx.Sleep(time.Hour)
					return nil
				})
				return err
			},
			3: func(ctx *Context) error {
				_, err := ctx.Enclose(nested, func(nctx *Context) error {
					nctx.Sleep(time.Hour)
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
	if !out.Completed || out.Resolved != "ofault" {
		t.Fatalf("outcome = %+v", out)
	}
	for _, o := range inner {
		if _, ok := aborted.Load(o); !ok {
			t.Errorf("abortion handler did not run at %s", o)
		}
	}
	if _, ok := sys.Store().Snapshot()["nested-data"]; ok {
		t.Error("aborted nested transaction leaked a write")
	}
}

// TestNestedEntryRacingOuterResolution is the nested-transaction leak
// regression: O1 raises at once while O2 is on its way into a singleton nested
// action, so in some runs the outer resolution refuses O2's entry (or unwinds
// it mid-entry) after the nested transaction has begun. That transaction is on
// no estack for the abortion pass to find; left live, it fails the outer
// commit with "transaction has active children".
func TestNestedEntryRacingOuterResolution(t *testing.T) {
	members := []ident.ObjectID{1, 2, 3, 4}
	for i := 0; i < 300; i++ {
		sys := NewServer(Options{})
		nested := &ActionSpec{
			Name: "inner", Tree: testTree("ofault"), Members: []ident.ObjectID{2},
			Handlers: uniformHandlers([]ident.ObjectID{2}, defaultOnly(noopHandler)),
		}
		idle := func(ctx *Context) error {
			ctx.Sleep(time.Hour)
			return nil
		}
		out, err := sys.RunTimeout(Definition{
			Spec: ActionSpec{
				Name: "outer", Tree: testTree("ofault"), Members: members,
				Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
			},
			Bodies: map[ident.ObjectID]Body{
				1: func(ctx *Context) error {
					ctx.Raise("ofault")
					return nil
				},
				2: func(ctx *Context) error {
					_, err := ctx.Enclose(nested, idle)
					return err
				},
				3: idle,
				4: idle,
			},
		}, 30*time.Second)
		sys.Close()
		if err != nil {
			t.Fatalf("run %d: %v (per object: %+v)", i, err, out.PerObject)
		}
		if !out.Completed || out.Resolved != "ofault" {
			t.Fatalf("run %d outcome = %+v", i, out)
		}
	}
}

// TestBodyStepsDuringAbort races a body stepping its own engine against its
// mailbox's drain aborting the body's nested actions. O2 descends a chain of
// nested actions of its own and at the bottom enters, leaves and raises in a
// loop, while O1's raise at the top escalates O2's engine into AbortNested.
// There the drain waits for O2's body to park, and gives the engine lock up
// while it waits: a body blocked on that lock must get it, find itself
// suspended and unwind. Were the lock held across the wait, the round would
// deadlock until RunTimeout.
func TestBodyStepsDuringAbort(t *testing.T) {
	const depth, rounds = 4, 50
	members := []ident.ObjectID{1, 2, 3}
	self := []ident.ObjectID{2}
	var (
		mu      sync.Mutex
		aborted []int // the levels whose abortion handler ran at O2, in order
	)
	spec := func(name string, level int) *ActionSpec {
		return &ActionSpec{
			Name: name, Tree: testTree("L"), Members: self,
			Handlers: uniformHandlers(self, defaultOnly(noopHandler)),
			Abortion: map[ident.ObjectID]AbortionHandler{2: func(*RecoveryContext) string {
				mu.Lock()
				aborted = append(aborted, level)
				mu.Unlock()
				return ""
			}},
		}
	}
	chain := make([]*ActionSpec, depth)
	for i := range chain {
		chain[i] = spec(fmt.Sprintf("chain%d", i+1), i+1)
	}
	var (
		descend func(ctx *Context, level int) error
		bottom  chan any // closed when O2 first reaches the bottom of the chain
	)
	descend = func(ctx *Context, level int) error {
		if level < depth {
			_, err := ctx.Enclose(chain[level], func(c *Context) error { return descend(c, level+1) })
			return err
		}
		close(bottom)
		// A run enters an action spec once, so every step gets its own.
		for {
			if _, err := ctx.Enclose(spec("leave", depth+1), func(*Context) error { return nil }); err != nil {
				return err
			}
			if _, err := ctx.Enclose(spec("raise", depth+1), func(c *Context) error { c.Raise("L"); return nil }); err != nil {
				return err
			}
		}
	}
	for tr, name := range map[TransportKind]string{TransportRaw: "raw", TransportReliable: "reliable"} {
		sys := NewServer(Options{Transport: tr})
		for round := 0; round < rounds; round++ {
			aborted = aborted[:0]
			bottom = make(chan any)
			out, err := sys.RunTimeout(Definition{
				Spec: ActionSpec{
					Name: "top", Tree: testTree("E1"), Members: members,
					Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
				},
				Bodies: map[ident.ObjectID]Body{
					1: func(ctx *Context) error {
						ctx.Await(bottom)
						ctx.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
						ctx.Raise("E1")
						return nil
					},
					2: func(ctx *Context) error { return descend(ctx, 0) },
					3: func(ctx *Context) error {
						ctx.Sleep(time.Hour)
						return nil
					},
				},
			}, 10*time.Second)
			if err != nil {
				sys.Close()
				t.Fatalf("%s round %d: %v (per object: %+v)", name, round, err, out.PerObject)
			}
			for obj, res := range out.PerObject {
				if !res.Completed || res.Resolved != "E1" {
					t.Errorf("%s round %d: %s finished %+v, want completed with E1", name, round, obj, res)
				}
			}
			mu.Lock()
			if n := len(aborted); n == 0 || aborted[n-1] != 1 {
				t.Errorf("%s round %d: abortion handlers ran for levels %v, want a chain ending at 1", name, round, aborted)
			}
			for k := 1; k < len(aborted); k++ {
				if aborted[k] != aborted[k-1]-1 {
					t.Errorf("%s round %d: abortion handlers ran for levels %v, want innermost first", name, round, aborted)
					break
				}
			}
			mu.Unlock()
		}
		sys.Close()
	}
}

// TestRunTimeoutDuringAbortionHandler: RunTimeout's deadline fires while an
// abortion handler works on the run's clock. O2 sleeps inside a nested action
// of its own; O1 raises at 1 ms, so O2's drain aborts the nested action, and
// its abortion handler sleeps 100 ms on the clock; the run's deadline is
// 20 ms. RunTimeout returns ErrTimeout once the handler has returned: no
// engine step outlives its run. On the virtual clock the teardown's wait for
// that drain must lend the run's token, or the handler's sleep never ends;
// the guard below reports such a hang with the clock instead of stalling the
// package.
func TestRunTimeoutDuringAbortionHandler(t *testing.T) {
	for _, tc := range []struct {
		name string
		clk  func(t *testing.T) vclock.Clock
	}{
		{"real", func(*testing.T) vclock.Clock { return vclock.Real{} }},
		{"virtual", func(t *testing.T) vclock.Clock {
			v := vclock.NewVirtual()
			v.StartAuto()
			t.Cleanup(v.StopAuto)
			return v
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := tc.clk(t)
			sys := NewServer(Options{Clock: clk})
			members := []ident.ObjectID{1, 2}
			self := []ident.ObjectID{2}
			var started, returned atomic.Bool
			inner := &ActionSpec{
				Name: "inner", Tree: testTree("L"), Members: self,
				Handlers: uniformHandlers(self, defaultOnly(noopHandler)),
				Abortion: map[ident.ObjectID]AbortionHandler{2: func(*RecoveryContext) string {
					started.Store(true)
					clk.Sleep(100 * time.Millisecond)
					returned.Store(true)
					return ""
				}},
			}
			def := Definition{
				Spec: ActionSpec{
					Name: "top", Tree: testTree("E1"), Members: members,
					Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
				},
				Bodies: map[ident.ObjectID]Body{
					1: func(ctx *Context) error {
						ctx.Sleep(time.Millisecond)
						ctx.Raise("E1")
						return nil
					},
					2: func(ctx *Context) error {
						_, err := ctx.Enclose(inner, func(c *Context) error {
							c.Sleep(time.Hour)
							return nil
						})
						return err
					},
				},
			}
			type result struct {
				out Outcome
				err error
				// returned, read as RunTimeout returns
				handlerReturned bool
			}
			done := make(chan result, 1)
			go func() {
				out, err := sys.RunTimeout(def, 20*time.Millisecond)
				done <- result{out, err, returned.Load()}
			}()
			select {
			case res := <-done:
				sys.Close()
				if !errors.Is(res.err, ErrTimeout) {
					t.Fatalf("err = %v (out %+v), want ErrTimeout", res.err, res.out)
				}
				if !started.Load() {
					t.Fatal("the abortion handler never ran: the deadline did not fire during it")
				}
				if !res.handlerReturned {
					t.Fatal("RunTimeout returned while the abortion handler was still running")
				}
			case <-time.After(10 * time.Second):
				// The server is wedged; closing it would wedge the test too.
				t.Fatalf("hang: RunTimeout has not returned after 10s of wall clock; clock %v", clk)
			}
		})
	}
}

// TestExample2EndToEnd runs §4.3 Example 2 / Figure 4 through the full
// runtime: four objects, nested A2 ⊃ A3, O3 belated for A3, E1 and E2 raised
// concurrently, O2's A2-abortion handler signalling E3.
func TestExample2EndToEnd(t *testing.T) {
	sys := newTestSystem(t)
	all := []ident.ObjectID{1, 2, 3, 4}
	a2members := []ident.ObjectID{2, 3, 4}
	a3members := []ident.ObjectID{2, 3}
	tree := testTree("E1", "E2", "E3")

	a3 := &ActionSpec{
		Name: "A3", Tree: tree, Members: a3members,
		Handlers: uniformHandlers(a3members, defaultOnly(noopHandler)),
	}
	a2 := &ActionSpec{
		Name: "A2", Tree: tree, Members: a2members,
		Handlers: uniformHandlers(a2members, defaultOnly(noopHandler)),
		Abortion: map[ident.ObjectID]AbortionHandler{
			2: func(*RecoveryContext) string { return "E3" },
		},
	}
	var outerResolved sync.Map
	outerHS := HandlerSet{Default: func(rctx *RecoveryContext, resolved exception.Exception) (string, error) {
		outerResolved.Store(rctx.Object, resolved.Name)
		return "", nil
	}}
	def := Definition{
		Spec: ActionSpec{
			Name: "A1", Tree: tree, Members: all,
			Handlers: uniformHandlers(all, outerHS),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error {
				ctx.Sleep(10 * time.Millisecond) // let the nesting form
				ctx.Raise("E1")
				return nil
			},
			2: func(ctx *Context) error {
				_, err := ctx.Enclose(a2, func(c2 *Context) error {
					_, err := c2.Enclose(a3, func(c3 *Context) error {
						c3.Sleep(5 * time.Millisecond)
						c3.Raise("E2") // stalls: O3 is belated for A3
						return nil
					})
					return err
				})
				return err
			},
			3: func(ctx *Context) error {
				_, err := ctx.Enclose(a2, func(c2 *Context) error {
					// O3 never enters A3 (belated participant).
					c2.Sleep(time.Hour)
					return nil
				})
				return err
			},
			4: func(ctx *Context) error {
				_, err := ctx.Enclose(a2, func(c2 *Context) error {
					c2.Sleep(time.Hour)
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
	// Resolution happens at A1 over {E1, E3} (E2's nested resolution is
	// eliminated); with a flat tree the cover is the root.
	if !out.Completed || out.Resolved != "universal" {
		t.Fatalf("outcome = %+v", out)
	}
	for _, o := range all {
		v, ok := outerResolved.Load(o)
		if !ok || v != "universal" {
			t.Errorf("outer handler at %s saw %v", o, v)
		}
	}
}

func TestEncloseNonMember(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1, 2}
	nested := &ActionSpec{
		Name: "inner", Tree: testTree("f"), Members: []ident.ObjectID{2},
		Handlers: uniformHandlers([]ident.ObjectID{2}, defaultOnly(noopHandler)),
	}
	def := Definition{
		Spec: ActionSpec{
			Name: "outer", Tree: testTree("f"), Members: members,
			Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error {
				_, err := ctx.Enclose(nested, func(*Context) error { return nil })
				if !errors.Is(err, ErrNotMember) {
					return errors.New("want ErrNotMember")
				}
				return nil
			},
			2: func(ctx *Context) error {
				_, err := ctx.Enclose(nested, func(*Context) error { return nil })
				return err
			},
		},
	}
	if _, err := sys.Run(def); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestAcceptanceTestFailureAborts: failing the acceptance test aborts the
// transaction (backward error recovery's precondition).
func TestAcceptanceTestFailureAborts(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1, 2}
	def := Definition{
		Spec: ActionSpec{
			Name: "outer", Tree: testTree("f"), Members: members,
			Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
			AcceptanceTest: func(view *TxnView) bool {
				v, err := view.Read("x")
				return err == nil && v == "good"
			},
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error { return ctx.Write("x", "bad") },
			2: func(ctx *Context) error { return nil },
		},
	}
	out, err := sys.Run(def)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !out.AcceptanceFailed {
		t.Fatalf("outcome = %+v, want AcceptanceFailed", out)
	}
	if _, ok := sys.Store().Snapshot()["x"]; ok {
		t.Error("failed acceptance test must abort the transaction")
	}
}

// TestRunWithRecoveryRetriesAlternate: the recovery-block behaviour of
// Figure 2(b): primary fails the acceptance test, the alternate passes.
func TestRunWithRecoveryRetriesAlternate(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1, 2}
	def := Definition{
		Spec: ActionSpec{
			Name: "outer", Tree: testTree("f"), Members: members,
			Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
			AcceptanceTest: func(view *TxnView) bool {
				v, err := view.Read("x")
				return err == nil && v == "good"
			},
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error { return ctx.Write("x", "bad") },
			2: func(ctx *Context) error { return nil },
		},
	}
	alternate := Attempt{
		1: func(ctx *Context) error { return ctx.Write("x", "good") },
		2: func(ctx *Context) error { return nil },
	}
	rec, err := sys.RunWithRecovery(def, []Attempt{alternate})
	if err != nil {
		t.Fatalf("recovery run: %v", err)
	}
	if rec.Attempts != 2 || !rec.Completed || rec.AcceptanceFailed {
		t.Fatalf("recovery outcome = %+v", rec)
	}
	if got := sys.Store().Snapshot()["x"]; got != "good" {
		t.Errorf("x = %v, want good", got)
	}
}

// TestWaitForNestedPolicyBlocksOnBelated is experiment E7: under Figure
// 1(a)'s wait strategy, an exception in the containing action cannot be
// resolved while a belated participant keeps the nested action alive — the
// run times out. The abort strategy (default) completes.
func TestWaitForNestedPolicyBlocksOnBelated(t *testing.T) {
	runWith := func(policy NestedPolicy, timeout time.Duration) (Outcome, error) {
		sys := NewServer(Options{})
		defer sys.Close()
		members := []ident.ObjectID{1, 2, 3}
		inner := []ident.ObjectID{2, 3}
		nested := &ActionSpec{
			Name: "inner", Tree: testTree("ifault"), Members: inner,
			Handlers: uniformHandlers(inner, defaultOnly(noopHandler)),
		}
		def := Definition{
			Spec: ActionSpec{
				Name: "outer", Tree: testTree("ofault"), Members: members,
				Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
				Policy:   policy,
			},
			Bodies: map[ident.ObjectID]Body{
				1: func(ctx *Context) error {
					ctx.Sleep(5 * time.Millisecond)
					ctx.Raise("ofault")
					return nil
				},
				2: func(ctx *Context) error {
					// O2 enters the nested action and waits for O3, which
					// never arrives (belated forever).
					_, err := ctx.Enclose(nested, func(nctx *Context) error {
						nctx.Sleep(time.Hour)
						return nil
					})
					return err
				},
				3: func(ctx *Context) error {
					// Belated: never enters the nested action.
					ctx.Sleep(time.Hour)
					return nil
				},
			},
		}
		return sys.RunTimeout(def, timeout)
	}

	// Abort policy: completes promptly.
	out, err := runWith(AbortNestedActions, 5*time.Second)
	if err != nil {
		t.Fatalf("abort policy: %v", err)
	}
	if !out.Completed || out.Resolved != "ofault" {
		t.Fatalf("abort policy outcome = %+v", out)
	}

	// Wait policy: the nested action never completes, the resolution never
	// starts for O2, the run must time out.
	if _, err := runWith(WaitForNestedActions, 300*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("wait policy: err = %v, want ErrTimeout", err)
	}
}
