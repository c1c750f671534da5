package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ident"
)

// raiseDef builds a two-member action where object 1 awaits the gate and
// raises exc, and object 2 awaits the gate and runs to the completion
// barrier. With a single raiser the resolution is exc itself, so the
// solo-run baseline outcome is {Completed: true, Resolved: exc}.
func raiseDef(name, exc string, gate <-chan any) Definition {
	members := []ident.ObjectID{1, 2}
	return Definition{
		Spec: ActionSpec{
			Name: name, Tree: testTree(exc), Members: members,
			Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error {
				ctx.Await(gate)
				ctx.Raise(exc)
				return nil
			},
			2: func(ctx *Context) error {
				ctx.Await(gate)
				return nil
			},
		},
	}
}

// TestServerConcurrentActionsZeroLeakage is the shared-runtime acceptance
// test: one server hosts 1000 concurrent in-flight actions multiplexed over
// the same two objects' shared transports, every action raising its own
// uniquely named exception. Each action must conclude exactly as its
// solo-run baseline does — resolving its own exception and completing — so
// any cross-action routing leak (a frame delivered to the wrong session's
// engine) surfaces as a wrong resolution or a protocol wedge.
func TestServerConcurrentActionsZeroLeakage(t *testing.T) {
	const actions = 1000

	// Solo baseline: the shape every concurrent action must reproduce.
	solo := NewServer(Options{})
	soloGate := make(chan any)
	close(soloGate)
	base, err := solo.Run(raiseDef("solo", "E1", soloGate))
	solo.Close()
	if err != nil {
		t.Fatalf("solo baseline: %v", err)
	}
	if !base.Completed || base.Resolved != "E1" || base.Signalled != "" {
		t.Fatalf("solo baseline outcome = %+v", base)
	}

	s := NewServer(Options{})
	defer s.Close()

	gate := make(chan any)
	pendings := make([]*Pending, actions)
	for k := 0; k < actions; k++ {
		p, err := s.Submit(raiseDef(fmt.Sprintf("a%d", k), fmt.Sprintf("E%d", k+1), gate))
		if err != nil {
			t.Fatalf("submit %d: %v", k, err)
		}
		pendings[k] = p
	}
	// Every action is admitted and its bodies are parked on the gate: the
	// server genuinely holds them all in flight at once.
	if got := s.InFlight(); got != actions {
		t.Fatalf("in-flight = %d, want %d", got, actions)
	}
	close(gate)

	for k, p := range pendings {
		out, err := p.Wait()
		exc := fmt.Sprintf("E%d", k+1)
		if err != nil {
			t.Fatalf("action %d: %v", k, err)
		}
		if !out.Completed || out.Resolved != exc || out.Signalled != "" || out.AcceptanceFailed {
			t.Errorf("action %d outcome = %+v, want solo baseline {Completed resolved %q}", k, out, exc)
		}
	}
}

// TestServerConcurrentFirstBind is the bind-race regression: 64 goroutines
// submit at once onto a fresh server over the same two objects, so every one
// of them finds the objects' dispatchers missing. Creation must be
// single-flight — one bind per object, every action attached to it — where
// the losers of the race used to fail with "member already registered" or
// close a transport sharing the winner's registration.
func TestServerConcurrentFirstBind(t *testing.T) {
	const submitters = 64
	gate := make(chan any)
	close(gate)
	for round := 0; round < 20; round++ {
		s := NewServer(Options{})
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				p, err := s.Submit(raiseDef(fmt.Sprintf("r%d-g%d", round, g), "E1", gate))
				if err != nil {
					t.Errorf("round %d submit %d: %v", round, g, err)
					return
				}
				if out, err := p.Wait(); err != nil || !out.Completed || out.Resolved != "E1" {
					t.Errorf("round %d action %d: out=%+v err=%v", round, g, out, err)
				}
			}(g)
		}
		close(start)
		wg.Wait()
		s.mu.Lock()
		bound := len(s.dispatchers)
		s.mu.Unlock()
		if bound != 2 {
			t.Errorf("round %d: %d dispatchers, want one per object (2)", round, bound)
		}
		s.Close()
		if t.Failed() {
			return
		}
	}
}

// TestServerCloseDrainsConcurrentRuns is the Close-vs-Run race regression:
// Close must reject new submissions and wait for in-flight runs instead of
// tearing the fabric down underneath them.
func TestServerCloseDrainsConcurrentRuns(t *testing.T) {
	s := NewServer(Options{})

	gate := make(chan any)
	const running = 8
	pendings := make([]*Pending, running)
	for k := 0; k < running; k++ {
		p, err := s.Submit(raiseDef(fmt.Sprintf("c%d", k), "E1", gate))
		if err != nil {
			t.Fatalf("submit %d: %v", k, err)
		}
		pendings[k] = p
	}

	// Racing submitters: every attempt must either run cleanly or be turned
	// away with ErrClosed — never touch a torn-down fabric.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				out, err := s.Run(raiseDef("racer", "E1", gate))
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("racing run: %v", err)
					}
					return
				}
				if !out.Completed || out.Resolved != "E1" {
					t.Errorf("racing run outcome = %+v", out)
				}
			}
		}()
	}

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		s.Close()
	}()

	// Close must be draining, not done: the gated runs are still in flight.
	select {
	case <-closed:
		t.Fatal("Close returned while runs were still in flight")
	case <-time.After(20 * time.Millisecond):
	}

	close(gate) // release the in-flight bodies; Close can now finish
	<-closed
	wg.Wait()

	for k, p := range pendings {
		if out, err := p.Wait(); err != nil || !out.Completed {
			t.Errorf("drained action %d: out=%+v err=%v", k, out, err)
		}
	}
	if _, err := s.Run(raiseDef("late", "E1", gate)); !errors.Is(err, ErrClosed) {
		t.Errorf("run after close: %v, want ErrClosed", err)
	}
	if _, err := s.Submit(raiseDef("late", "E1", gate)); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: %v, want ErrClosed", err)
	}
}

// TestServerAdmissionReject verifies the typed-overload path: at
// MaxInFlight, OverloadReject fails fast with ErrOverload, and slots freed
// by completing actions admit again.
func TestServerAdmissionReject(t *testing.T) {
	s := NewServer(Options{MaxInFlight: 2, Overload: OverloadReject})
	defer s.Close()

	gate := make(chan any)
	p1, err := s.Submit(raiseDef("a1", "E1", gate))
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	p2, err := s.Submit(raiseDef("a2", "E1", gate))
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if _, err := s.Submit(raiseDef("a3", "E1", gate)); !errors.Is(err, ErrOverload) {
		t.Fatalf("submit over cap: %v, want ErrOverload", err)
	}
	close(gate)
	if _, err := p1.Wait(); err != nil {
		t.Fatalf("wait 1: %v", err)
	}
	if _, err := p2.Wait(); err != nil {
		t.Fatalf("wait 2: %v", err)
	}
	p3, err := s.Submit(raiseDef("a4", "E1", gate))
	if err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	if out, err := p3.Wait(); err != nil || !out.Completed {
		t.Fatalf("post-drain action: out=%+v err=%v", out, err)
	}
}

// TestServerAdmissionBlocks verifies OverloadBlock backpressure: a
// submission beyond MaxInFlight parks until a slot frees.
func TestServerAdmissionBlocks(t *testing.T) {
	s := NewServer(Options{MaxInFlight: 1})
	defer s.Close()

	gate := make(chan any)
	p1, err := s.Submit(raiseDef("b1", "E1", gate))
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	admitted := make(chan *Pending, 1)
	go func() {
		p, err := s.Submit(raiseDef("b2", "E1", gate))
		if err != nil {
			t.Errorf("blocked submit: %v", err)
		}
		admitted <- p
	}()
	select {
	case <-admitted:
		t.Fatal("second submission admitted past MaxInFlight=1")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	if _, err := p1.Wait(); err != nil {
		t.Fatalf("wait 1: %v", err)
	}
	p2 := <-admitted
	if out, err := p2.Wait(); err != nil || !out.Completed {
		t.Fatalf("unblocked action: out=%+v err=%v", out, err)
	}
}

// TestServerTraceBounded: a server built without Options.Trace keeps no
// event, so its heap does not grow with the actions it runs, and its census
// is still exact. The shape is the benchmark's `single` workload (N=4, one
// raiser, raw transport, nine messages an action).
func TestServerTraceBounded(t *testing.T) {
	const warm, actions = 1000, 3000
	const slack = 64 << 10
	members := []ident.ObjectID{1, 2, 3, 4}
	bodies := make(map[ident.ObjectID]Body, len(members))
	for _, m := range members {
		bodies[m] = func(*Context) error { return nil }
	}
	bodies[1] = func(ctx *Context) error { ctx.Raise("E1"); return nil }
	def := Definition{
		Spec: ActionSpec{
			Name: "single", Tree: testTree("E1"), Members: members,
			Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
		},
		Bodies: bodies,
	}
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	s := NewServer(Options{Transport: TransportRaw})
	defer s.Close()
	var warmHeap int64
	for k := 0; k < actions; k++ {
		if out, err := s.Run(def); err != nil || !out.Completed || out.Resolved != "E1" {
			t.Fatalf("action %d: out=%+v err=%v", k, out, err)
		}
		if k+1 == warm {
			warmHeap = liveHeap()
			s.Trace().Reset()
		}
	}
	if grown := liveHeap() - warmHeap; grown > slack {
		t.Errorf("live heap grew %d KiB between action %d and action %d, want at most %d KiB",
			grown>>10, warm, actions, slack>>10)
	}
	if got := len(s.Trace().Events()); got != 0 {
		t.Errorf("server holds %d events, want none", got)
	}
	// (N-1)(2P+3Q+1) with N=4, P=1, Q=0, counted since the Reset.
	if got := s.Trace().TotalSends(); got != 9*(actions-warm) {
		t.Errorf("TotalSends = %d, want %d", got, 9*(actions-warm))
	}
}
