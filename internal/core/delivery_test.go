package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// quietDef is an N-member action where nobody raises: it binds every member's
// dispatcher and ends at the completion barrier.
func quietDef(name string, n int, gate <-chan any) Definition {
	members := make([]ident.ObjectID, n)
	bodies := make(map[ident.ObjectID]Body, n)
	for i := range members {
		members[i] = ident.ObjectID(i + 1)
		bodies[members[i]] = func(ctx *Context) error {
			ctx.Await(gate)
			return nil
		}
	}
	return Definition{
		Spec: ActionSpec{
			Name: name, Tree: testTree("E1"), Members: members,
			Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
		},
		Bodies: bodies,
	}
}

// TestServerGoroutineBudget pins the runtime's shape in goroutines. An idle
// server holds no goroutine per bound object, on TransportRaw and on
// TransportReliable alike, only its parked workers: a port calls its handler
// on the delivering goroutine, and R3's ticker is a callback on the clock
// seam. Bodies, mailbox drains, handlers and submitted actions run on those
// workers, and a worker is started only when none is idle: a submitted action
// whose N bodies all wait at a gate at once, and which sends no message,
// grows a fresh pool to exactly N+1 workers (a body per member, and the
// Submit; an engine runs on a worker only while a delivery waits for it), all
// of which park once it ends, and Close returns the count to where it was
// before the server. With membership monitoring on a session still needs no
// more: the detector's beat and the monitor's poll are callbacks, and so is
// RunTimeout's deadline.
func TestServerGoroutineBudget(t *testing.T) {
	const n = 8
	const slack = 2 // goroutines of the runtime or the test binary that come and go
	within := func(t *testing.T, what string, base, budget int, settled func() bool) {
		t.Helper()
		var held int
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			held = runtime.NumGoroutine() - base
			if settled() && held <= budget {
				return
			}
			if time.Now().After(deadline) {
				break
			}
		}
		buf := make([]byte, 1<<16)
		t.Fatalf("%s with %d bound objects holds %d goroutines, budget %d\n%s",
			what, n, held, budget, buf[:runtime.Stack(buf, true)])
	}
	for _, tc := range []struct {
		name      string
		transport TransportKind
	}{
		{"raw", TransportRaw},
		{"reliable", TransportReliable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			s := NewServer(Options{Transport: tc.transport})
			defer s.Close()
			gate := make(chan any)
			var waiting atomic.Int32
			def := quietDef("budget", n, gate)
			for obj, body := range def.Bodies {
				def.Bodies[obj] = func(ctx *Context) error { waiting.Add(1); return body(ctx) }
			}
			pend, err := s.Submit(def)
			if err != nil {
				t.Fatal(err)
			}
			waitUntil(t, "every body at the gate", func() bool { return waiting.Load() == n })
			close(gate)
			if out, err := pend.Wait(); err != nil || !out.Completed {
				t.Fatalf("run: out=%+v err=%v", out, err)
			}
			if got := len(s.dispatchers); got != n {
				t.Fatalf("%d dispatchers bound, want %d", got, n)
			}
			const workers = n + 1
			within(t, "idle server", base, workers+slack, func() bool {
				idle, _ := s.workers.counts()
				return s.InFlight() == 0 && idle == workers
			})
			if _, started := s.workers.counts(); started != workers {
				t.Fatalf("%d workers started, want %d", started, workers)
			}
			s.Close()
			within(t, "closed server", base, slack, func() bool { return true })
		})
	}
	t.Run("membership session", func(t *testing.T) {
		base := runtime.NumGoroutine()
		// A virtual clock nobody advances: the beats and polls are armed and
		// never due, so a loaded box cannot expel anyone while we count.
		s := NewServer(Options{Membership: fastMembership(), Clock: vclock.NewVirtual()})
		defer s.Close()
		members := make([]ident.ObjectID, n)
		for i := range members {
			members[i] = ident.ObjectID(i + 1)
		}
		gate := make(chan any)
		var opened sync.Once
		open := func() { opened.Do(func() { close(gate) }) }
		defer open() // before the deferred Close, which waits for the parked action
		var parked atomic.Int32
		done := make(chan error, 1)
		go func() {
			_, err := s.RunTimeout(pfDef(members, func(ctx *Context) error {
				parked.Add(1)
				ctx.Await(gate)
				return nil
			}), membershipDeadline)
			done <- err
		}()
		// The caller above, then per member its body's worker. No beat is
		// due, so no delivery starts a drain.
		within(t, "membership session", base, 1+n+slack, func() bool { return parked.Load() == n })
		open()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
}

// TestServerStaleDeliveryRecycledMailbox is the hazard pooled mailboxes
// introduce: action A finishes and its mailboxes go back to the pool, action
// B starts on the same objects and takes them out again, and then a message
// still tagged A arrives. It must be dropped and counted; B's mailbox must
// never hold it. The message takes the real path, object 2's transport to
// object 1's port, R3 and route, on object 2's sending goroutine.
func TestServerStaleDeliveryRecycledMailbox(t *testing.T) {
	for _, transport := range []TransportKind{TransportRaw, TransportReliable} {
		s := NewServer(Options{Transport: transport})
		open := make(chan any)
		close(open)
		if out, err := s.Run(raiseDef("A", "E1", open)); err != nil || !out.Completed {
			t.Fatalf("action A: out=%+v err=%v", out, err)
		}
		s.mu.Lock()
		tagA := s.nextAction // A was the only action: the last identifier allocated is its root's or a descendant's
		d1, d2 := s.dispatchers[1], s.dispatchers[2]
		s.mu.Unlock()

		gate := make(chan any)
		pb, err := s.Submit(raiseDef("B", "E1", gate))
		if err != nil {
			t.Fatal(err)
		}
		var tagB ident.ActionID
		var mbB *mailbox
		waitUntil(t, "B registered on object 1", func() bool {
			d1.mu.Lock()
			defer d1.mu.Unlock()
			for tag, mb := range d1.routes {
				tagB, mbB = tag, mb
			}
			return len(d1.routes) == 1
		})
		if tagB <= tagA {
			t.Fatalf("B's tag %s does not follow A's last identifier %s", tagB, tagA)
		}

		d1.mu.Lock()
		before := d1.dropped
		d1.mu.Unlock()
		// Every identifier A could have used, so whichever was its root tag
		// is among them: all of them are finished business.
		for tag := ident.ActionID(1); tag <= tagA; tag++ {
			stale := protocol.Msg{Kind: protocol.KindException, Action: tag, From: 2, Exc: "E1"}
			if err := d2.tr.SendTagged(1, stale.Kind, tag, stale); err != nil {
				t.Fatal(err)
			}
		}
		waitUntil(t, "stale deliveries counted as dropped", func() bool {
			d1.mu.Lock()
			defer d1.mu.Unlock()
			return d1.dropped-before == int(tagA)
		})
		mbB.mu.Lock()
		queued := mbB.queue.Len()
		mbB.mu.Unlock()
		if queued != 0 {
			t.Fatalf("B's mailbox holds %d deliveries before B exchanged a message: a finished action's message reached it", queued)
		}

		close(gate)
		if out, err := pb.Wait(); err != nil || !out.Completed || out.Resolved != "E1" {
			t.Fatalf("action B after the stale delivery: out=%+v err=%v", out, err)
		}
		s.Close()
	}
}

// TestSessionEntersBeforeBodies pins how a session starts: every participant
// has entered the top-level action, on the goroutine that creates it, before
// the first body runs, so an action's trace opens with its N enter events
// whatever the bodies do first (here all of them raise at once). An engine
// has no goroutine until a delivery hands its mailbox's drain to a worker,
// and nothing is delivered before a body raises, so no drain steps an engine
// that has not entered; when engines started first and bodies entered the
// top-level action themselves, the observed P of an all-raise action
// wandered from run to run.
func TestSessionEntersBeforeBodies(t *testing.T) {
	const n = 6
	members := make([]ident.ObjectID, n)
	bodies := make(map[ident.ObjectID]Body, n)
	for i := range members {
		members[i] = ident.ObjectID(i + 1)
		bodies[members[i]] = func(ctx *Context) error { ctx.Raise("E1"); return nil }
	}
	def := Definition{
		Spec: ActionSpec{
			Name: "storm", Tree: testTree("E1"), Members: members,
			Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
		},
		Bodies: bodies,
	}
	// The first events of an action are read, so the log must keep them all.
	s := NewServer(Options{Transport: TransportRaw, Trace: trace.NewLog()})
	defer s.Close()
	for round := 0; round < 50; round++ {
		s.Trace().Reset()
		if out, err := s.Run(def); err != nil || !out.Completed || out.Resolved != "E1" {
			t.Fatalf("round %d: out=%+v err=%v", round, out, err)
		}
		for i, ev := range s.Trace().Events()[:n] {
			if ev.Kind != trace.EvEnter {
				t.Fatalf("round %d: event %d of the action is %v, want the %d enter events first", round, i, ev, n)
			}
		}
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for: " + what + fmt.Sprintf(" (%d goroutines)", runtime.NumGoroutine()))
		}
	}
}
