package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exception"
	"repro/internal/ident"
	"repro/internal/transport/conformancetest"
	"repro/internal/vclock"
)

// TestServerRecyclesOnlyQuiescentParticipants is the pool-lifetime
// regression. Two actions end while one participant's handler is still
// blocked, released only after they have returned: one by RunTimeout's
// deadline, one cancelled by its peer's handler error. If either participant
// went back to the pool, that handler would deliver its outcome into a
// participant serving a later action. 500 mixed actions follow on the same
// server (raising, nested with abortion, cancelled while bodies are posting,
// quiet); every outcome must be the expected one and no body may find an
// earlier action's outcome waiting for it. On a virtual clock the server must
// end holding no token.
//
// The last case is the worker such a handler runs on: the server closes while
// the handler is still blocked, Close returns all the same, and once the
// handler is released its worker exits instead of parking.
func TestServerRecyclesOnlyQuiescentParticipants(t *testing.T) {
	t.Run("real", func(t *testing.T) { testPoolLifetime(t, vclock.System) })
	t.Run("virtual", func(t *testing.T) {
		clk := vclock.NewVirtual()
		clk.StartAuto()
		defer clk.StopAuto()
		testPoolLifetime(t, clk)
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if s := clk.String(); strings.Contains(s, " tokens=0 ") {
				break
			} else if time.Now().After(deadline) {
				t.Fatalf("clock still counts work: %s", s)
			}
		}
	})
	t.Run("handler blocked at close", func(t *testing.T) {
		leak := conformancetest.LeakCheckErr()
		s := NewServer(Options{})
		release := make(chan struct{})
		hs := HandlerSet{Default: func(rctx *RecoveryContext, _ exception.Exception) (string, error) {
			if rctx.Object == 1 {
				<-release
			}
			return "", nil
		}}
		pair := []ident.ObjectID{1, 2}
		def := Definition{
			Spec: ActionSpec{
				Name: "blocked", Tree: testTree("E1"), Members: pair,
				Handlers: uniformHandlers(pair, hs),
			},
			Bodies: map[ident.ObjectID]Body{
				1: func(ctx *Context) error { ctx.Raise("E1"); return nil },
				2: func(*Context) error { return nil },
			},
		}
		if _, err := s.RunTimeout(def, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
		s.Close()
		close(release)
		if err := leak(); err != nil {
			t.Fatal(err)
		}
	})
}

func testPoolLifetime(t *testing.T, clk vclock.Clock) {
	const timeout = 20 * time.Millisecond
	s := NewServer(Options{Clock: clk})
	defer s.Close()
	boom := errors.New("boom")
	release := make(chan struct{})
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()

	// noStale fails the test if p holds the outcome of an earlier action.
	noStale := func(ctx *Context) {
		p := ctx.p
		p.smu.Lock()
		defer p.smu.Unlock()
		for _, o := range p.outcomes {
			if o.action < p.run.top.id {
				t.Errorf("%s in %s holds a stale outcome for %s", p.obj, p.run.top.id, o.action)
			}
		}
	}
	flat := func(name string, members []ident.ObjectID, hs HandlerSet, bodies map[ident.ObjectID]Body) Definition {
		for obj, b := range bodies {
			bodies[obj] = func(ctx *Context) error { noStale(ctx); return b(ctx) }
		}
		return Definition{
			Spec: ActionSpec{
				Name: name, Tree: testTree("E1", "ofault"), Members: members,
				Handlers: uniformHandlers(members, hs),
			},
			Bodies: bodies,
		}
	}
	raise := func(ctx *Context) error { ctx.Raise("E1"); return nil }
	idle := func(*Context) error { return nil }
	pair := []ident.ObjectID{1, 2}

	// O1 raises; O1's handler blocks past the action's end. O2's handler
	// either completes (the deadline ends the action) or fails once O1's is
	// blocked (the error ends it).
	blocked := func(o2 func(blocked chan struct{}) error) Definition {
		blockedCh := make(chan struct{}, 1)
		hs := HandlerSet{Default: func(rctx *RecoveryContext, _ exception.Exception) (string, error) {
			if rctx.Object == 2 {
				return "", o2(blockedCh)
			}
			blockedCh <- struct{}{}
			clk.Sleep(2 * timeout) // lends its token to a virtual clock, so the deadline can fire
			<-release
			return "", nil
		}}
		return flat("blocked", pair, hs, map[ident.ObjectID]Body{1: raise, 2: idle})
	}
	if _, err := s.RunTimeout(blocked(func(chan struct{}) error { return nil }), timeout); !errors.Is(err, ErrTimeout) {
		t.Fatalf("timed-out action: err = %v, want ErrTimeout", err)
	}
	out, err := s.Run(blocked(func(b chan struct{}) error { <-b; return boom }))
	if err == nil || !errors.Is(out.PerObject[1].Err, ErrCancelled) || !errors.Is(out.PerObject[2].Err, boom) {
		t.Fatalf("cancelled action: err = %v, per object %+v; want O1 cancelled, O2 boom", err, out.PerObject)
	}
	close(release)
	released = true

	trio := []ident.ObjectID{1, 2, 3}
	quad := []ident.ObjectID{1, 2, 3, 4}
	noop := defaultOnly(noopHandler)
	var aborted atomic.Int32
	for i := 0; i < 500; i++ {
		var def Definition
		check := func(out Outcome, err error) error {
			if err != nil || !out.Completed {
				return fmt.Errorf("out=%+v err=%v", out, err)
			}
			return nil
		}
		switch i % 4 {
		case 0: // one raiser
			def = flat("raise", trio, noop, map[ident.ObjectID]Body{1: raise, 2: idle, 3: idle})
			check = func(out Outcome, err error) error {
				if err != nil || !out.Completed || out.Resolved != "E1" {
					return fmt.Errorf("out=%+v err=%v, want E1 resolved", out, err)
				}
				return nil
			}
		case 1: // O2 and O3 inside a nested action the outer raise aborts
			var entered atomic.Int32
			inner := []ident.ObjectID{2, 3}
			count := func(*RecoveryContext) string { aborted.Add(1); return "" }
			nested := &ActionSpec{
				Name: "inner", Tree: testTree("E1"), Members: inner,
				Handlers: uniformHandlers(inner, noop),
				Abortion: map[ident.ObjectID]AbortionHandler{2: count, 3: count},
			}
			enclose := func(ctx *Context) error {
				_, err := ctx.Enclose(nested, func(n *Context) error {
					entered.Add(1)
					n.Sleep(time.Hour)
					return nil
				})
				return err
			}
			def = flat("abort", trio, noop, map[ident.ObjectID]Body{
				1: func(ctx *Context) error {
					// Polled on the server's clock: a channel sender is not
					// counted, so a virtual clock could leap to the deadline.
					for entered.Load() < 2 {
						ctx.Sleep(time.Millisecond)
					}
					ctx.Raise("ofault")
					return nil
				},
				2: enclose, 3: enclose,
			})
			before := aborted.Load()
			check = func(out Outcome, err error) error {
				if err != nil || !out.Completed || out.Resolved != "ofault" || aborted.Load()-before != 2 {
					return fmt.Errorf("out=%+v err=%v, %d abortion handlers; want ofault resolved, 2",
						out, err, aborted.Load()-before)
				}
				return nil
			}
		case 2: // O1 fails while O2..O4 are entering and leaving nested actions
			first := make(chan any, 3)
			loop := func(ctx *Context) error {
				for {
					solo := []ident.ObjectID{ctx.Object()}
					spec := &ActionSpec{Name: "solo", Tree: testTree("E1"), Members: solo,
						Handlers: uniformHandlers(solo, noop)}
					if _, err := ctx.Enclose(spec, idle); err != nil {
						return err
					}
					select {
					case first <- nil:
					default:
					}
					runtime.Gosched() // on one P, let O1 in
				}
			}
			def = flat("cancel", quad, noop, map[ident.ObjectID]Body{
				1: func(ctx *Context) error { ctx.Await(first); return boom },
				2: loop, 3: loop, 4: loop,
			})
			check = func(out Outcome, err error) error {
				if !errors.Is(err, boom) {
					return fmt.Errorf("err = %v, want boom", err)
				}
				for _, obj := range quad[1:] {
					if res := out.PerObject[obj]; !errors.Is(res.Err, ErrCancelled) {
						return fmt.Errorf("%s: %+v, want cancelled", obj, res)
					}
				}
				return nil
			}
		case 3: // nobody raises
			def = flat("quiet", trio, noop, map[ident.ObjectID]Body{1: idle, 2: idle, 3: idle})
		}
		if err := check(s.RunTimeout(def, 30*time.Second)); err != nil {
			t.Fatalf("action %d (%s): %v", i, def.Spec.Name, err)
		}
	}
}

// counts returns how many of the pool's workers are parked and how many it
// has ever started.
func (wp *workerPool) counts() (idle, started int) {
	wp.mu.Lock()
	defer wp.mu.Unlock()
	return len(wp.idle), wp.started
}

// TestNoGoroutinePerAction pins that actions run on the server's parked
// workers. One warm-up action holds several workers at once (Submit's, and
// per member its body and its handler, the handlers meeting at a barrier;
// drains come and go with the deliveries). 500 such actions follow, each
// submitted once the workers of the one before have all parked again. The
// pool never grows past what one action can use at once (Submit's worker,
// and per member a body, a drain and a handler), and the 500 actions bear
// fewer than one goroutine per two actions: one per action, or per drain,
// would show at least one each.
func TestNoGoroutinePerAction(t *testing.T) {
	const n, rounds = 4, 500
	// Goroutine numbers are handed to each P in batches of 16, so births are
	// counted to within 16 per P: on at most two Ps a goroutine per action
	// shows at least rounds-32.
	if runtime.GOMAXPROCS(0) > 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	members := []ident.ObjectID{1, 2, 3, 4}
	def := func(h Handler) Definition {
		bodies := make(map[ident.ObjectID]Body, n)
		for _, m := range members {
			bodies[m] = func(*Context) error { return nil }
		}
		bodies[1] = func(ctx *Context) error { ctx.Raise("E1"); return nil }
		return Definition{
			Spec: ActionSpec{
				Name: "raise", Tree: testTree("E1"), Members: members,
				Handlers: uniformHandlers(members, defaultOnly(h)),
			},
			Bodies: bodies,
		}
	}
	s := NewServer(Options{Transport: TransportRaw})
	defer s.Close()
	action := func(def Definition) {
		p, err := s.Submit(def)
		if err != nil {
			t.Fatal(err)
		}
		if out, err := p.Wait(); err != nil || !out.Completed || out.Resolved != "E1" {
			t.Fatalf("out=%+v err=%v", out, err)
		}
		waitUntil(t, "every worker parked", func() bool {
			idle, started := s.workers.counts()
			return idle == started
		})
	}
	var barrier sync.WaitGroup
	barrier.Add(n)
	action(def(func(*RecoveryContext, exception.Exception) (string, error) {
		barrier.Done()
		barrier.Wait()
		return "", nil
	}))
	steady := def(noopHandler)
	born := goroutinesBorn(func() {
		for i := 0; i < rounds; i++ {
			action(steady)
		}
	})
	if _, started := s.workers.counts(); started > 3*n+1 {
		t.Errorf("%d workers started, more than the %d one action can use at once", started, 3*n+1)
	}
	if born >= rounds/2 {
		t.Errorf("%d actions bore %d goroutines", rounds, born)
	}
}

// goroutinesBorn returns about how many goroutines f started: the runtime
// numbers goroutines in the order it creates them, handing each P a batch of
// numbers at a time.
func goroutinesBorn(f func()) int {
	before := probeGoroutineID()
	f()
	return probeGoroutineID() - before - 1
}

// probeGoroutineID starts a goroutine and returns its number, read from the
// header of its stack trace ("goroutine 42 [running]:").
func probeGoroutineID() int {
	id := make(chan int)
	go func() {
		buf := make([]byte, 64)
		var n int
		fmt.Sscanf(string(buf[:runtime.Stack(buf, false)]), "goroutine %d ", &n)
		id <- n
	}()
	return <-id
}

// TestCloseStopsIdleWorkers pins that Close leaves no worker behind: after a
// few actions have grown the pool, Close stops every parked worker.
func TestCloseStopsIdleWorkers(t *testing.T) {
	for _, transport := range []TransportKind{TransportRaw, TransportReliable} {
		leak := conformancetest.LeakCheckErr()
		s := NewServer(Options{Transport: transport})
		open := make(chan any)
		close(open)
		for i := 0; i < 10; i++ {
			if out, err := s.Run(raiseDef("close", "E1", open)); err != nil || !out.Completed {
				t.Fatalf("transport %d: out=%+v err=%v", transport, out, err)
			}
		}
		if idle, _ := s.workers.counts(); idle == 0 {
			t.Fatalf("transport %d: no worker parked after 10 actions", transport)
		}
		s.Close()
		if err := leak(); err != nil {
			t.Fatalf("transport %d: %v", transport, err)
		}
	}
}

// TestRetainedContextsFailClosed pins docs/SERVER.md's rule that what user
// code may keep is never pooled. In a first action a body keeps its
// *Context, a resolved handler its *RecoveryContext and that context's
// *TxnView, and the acceptance test its *TxnView. Later actions on the same
// warm server, whose participants come from the pool, use every one of them
// from inside a body: each Add, Write and Read fails with ErrActionFinished,
// and the later actions' own sums are exact.
func TestRetainedContextsFailClosed(t *testing.T) {
	s := newTestSystem(t)
	members := []ident.ObjectID{1, 2, 3, 4}
	var (
		mu      sync.Mutex
		bodies  []*Context
		rctxs   []*RecoveryContext
		views   []*TxnView
		stashed bool
	)
	keep := func(ctx *Context, rctx *RecoveryContext, view *TxnView) {
		mu.Lock()
		defer mu.Unlock()
		if stashed {
			return
		}
		if ctx != nil {
			bodies = append(bodies, ctx)
		}
		if rctx != nil {
			rctxs = append(rctxs, rctx)
		}
		if view != nil {
			views = append(views, view)
		}
	}
	first := Definition{
		Spec: ActionSpec{
			Name: "keeper", Tree: testTree("E1"), Members: members,
			Handlers: uniformHandlers(members, defaultOnly(
				func(rctx *RecoveryContext, _ exception.Exception) (string, error) {
					keep(nil, rctx, rctx.View)
					return "", rctx.View.Add("hot", 1)
				})),
			AcceptanceTest: func(view *TxnView) bool {
				keep(nil, nil, view)
				return true
			},
		},
		Bodies: make(map[ident.ObjectID]Body, len(members)),
	}
	for _, m := range members {
		first.Bodies[m] = func(ctx *Context) error {
			keep(ctx, nil, nil)
			if ctx.Object() == 1 {
				ctx.Raise("E1")
			}
			return nil
		}
	}
	if out, err := s.Run(first); err != nil || !out.Completed || out.Resolved != "E1" {
		t.Fatalf("first action: out=%+v err=%v", out, err)
	}
	mu.Lock()
	stashed = true
	if len(bodies) != len(members) || len(rctxs) != len(members) || len(views) != len(members)+1 {
		mu.Unlock()
		t.Fatalf("kept %d contexts, %d recovery contexts, %d views", len(bodies), len(rctxs), len(views))
	}
	mu.Unlock()

	// Every retained value, used from a later action's body.
	misuse := func() error {
		type txn interface {
			Read(string) (any, error)
			Write(string, any) error
			Add(string, int) error
		}
		var all []txn
		for _, c := range bodies {
			all = append(all, c)
		}
		for _, r := range rctxs {
			all = append(all, r.View)
		}
		for _, v := range views {
			all = append(all, v)
		}
		for i, v := range all {
			if err := v.Add("hot", 1000); !errors.Is(err, ErrActionFinished) {
				return fmt.Errorf("retained #%d: Add = %v", i, err)
			}
			if err := v.Write("leak", i); !errors.Is(err, ErrActionFinished) {
				return fmt.Errorf("retained #%d: Write = %v", i, err)
			}
			if _, err := v.Read("hot"); !errors.Is(err, ErrActionFinished) {
				return fmt.Errorf("retained #%d: Read = %v", i, err)
			}
		}
		return nil
	}
	const later, adds = 20, 16
	for a := 0; a < later; a++ {
		def := Definition{
			Spec: ActionSpec{
				Name: "later", Tree: testTree("E1"), Members: members,
				Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
			},
			Bodies: make(map[ident.ObjectID]Body, len(members)),
		}
		for _, m := range members {
			def.Bodies[m] = func(ctx *Context) error {
				if ctx.Object() == 1 {
					if err := misuse(); err != nil {
						return err
					}
				}
				for i := 0; i < adds; i++ {
					if err := ctx.Add("hot", 1); err != nil {
						return err
					}
				}
				priv := fmt.Sprintf("priv-%d", ctx.Object())
				n := 0
				if v, err := ctx.Read(priv); err == nil && v != nil {
					n = v.(int)
				}
				return ctx.Write(priv, n+1)
			}
		}
		p, err := s.Submit(def)
		if err != nil {
			t.Fatal(err)
		}
		if out, err := p.Wait(); err != nil || !out.Completed {
			t.Fatalf("later action %d: out=%+v err=%v", a, out, err)
		}
	}
	snap := s.Store().Snapshot()
	if got, want := snap["hot"], len(members)+later*len(members)*adds; got != want {
		t.Errorf("hot = %v, want %d", got, want)
	}
	for _, m := range members {
		if got := snap[fmt.Sprintf("priv-%d", m)]; got != later {
			t.Errorf("priv-%d = %v, want %d", m, got, later)
		}
	}
	if v, ok := snap["leak"]; ok {
		t.Errorf("a retained context wrote leak = %v", v)
	}
}
