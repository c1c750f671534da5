//go:build !race

// sync.Pool drops one Put in four under -race, so pooled participants would be
// rebuilt at random and these counts would not mean anything there.

package core

import (
	"runtime/metrics"
	"testing"

	"repro/internal/ident"
)

// TestServerActionAllocs gates what core builds around an action's messages
// on a warm server, Submit+Wait: the benchmark's `single` shape (N=4) with
// and without its raiser, and its `storm` shape (N=8, all eight raise), on
// the raw transport; and `reliable`, N=4 with two raisers over R3 with every
// body wire-encoded; and `nested`, N=4 where every member encloses one
// nested action in which two of them raise. Mailbox drains, bodies, handlers
// and Submit run on the server's parked workers; when each had a goroutine of
// its own (a standing engine loop per member then), every `go` allocated the
// closure carrying its arguments: 13 allocations of `single`'s 57 (Submit's,
// and per member its engine loop's, its body's and its handler's) and 9 of
// `empty`'s 31. A protocol message
// travels by value from engine to engine; when hookSend boxed it into an
// `any`, that was one allocation per message: 9 of `single`'s 44 and 105 of
// `storm`'s 156. The action's transaction is one allocation; its family mutex
// was a second. A run holds its top-level instance, and each instance makes
// one slab of its members' contexts, recovery contexts and views; when the
// run kept participant and instance maps and each body, handler and view was
// its own allocation, `empty` took 21, `single` 34, `storm` 50, `reliable` 67
// and `nested` 45. What is left of `single`'s 7: the run, the slab, the
// transaction, the Pending, the outcome's PerObject map (2) and the chooser's
// trace detail.
func TestServerActionAllocs(t *testing.T) {
	for _, sh := range actionShapes {
		t.Run(sh.name, func(t *testing.T) {
			s := NewServer(sh.opts)
			defer s.Close()
			action := sh.action(t, s)
			// Past the point where the server's event ring has filled.
			for i := 0; i < 1000; i++ {
				action()
			}
			if got := testing.AllocsPerRun(1000, action); got > sh.maxAllocs {
				t.Errorf("%.1f allocations per action, want at most %.0f", got, sh.maxAllocs)
			} else {
				t.Logf("%.1f allocations per action", got)
			}
		})
	}
}

// BenchmarkServerAction runs TestServerActionAllocs' shapes on a warm server
// and reports, next to allocs/op, wakeups/op: how many times a goroutine was
// made runnable, the count of runtime/metrics' /sched/latencies:seconds,
// which the runtime samples one in eight, times eight. It reports and gates
// nothing; ROADMAP item 2's figures are
// `go test -run '^$' -bench ServerAction -benchtime 20000x -cpu 2`.
func BenchmarkServerAction(b *testing.B) {
	for _, sh := range actionShapes {
		b.Run(sh.name, func(b *testing.B) {
			s := NewServer(sh.opts)
			defer s.Close()
			action := sh.action(b, s)
			for i := 0; i < 1000; i++ {
				action()
			}
			b.ReportAllocs()
			b.ResetTimer()
			before := runnableCount()
			for i := 0; i < b.N; i++ {
				action()
			}
			b.ReportMetric(float64(8*(runnableCount()-before))/float64(b.N), "wakeups/op")
		})
	}
}

// runnableCount is the count of the runtime's scheduling-latency histogram:
// one sample in eight of the times a goroutine went from runnable to running.
func runnableCount() uint64 {
	sample := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(sample)
	var n uint64
	for _, c := range sample[0].Value.Float64Histogram().Counts {
		n += c
	}
	return n
}

// actionShape is one action TestServerActionAllocs gates and
// BenchmarkServerAction measures: n members, the first raisers of which
// raise E1, at the top level or, nested, inside one nested action every
// member encloses.
type actionShape struct {
	name      string
	n         int
	raisers   int
	nested    bool
	opts      Options
	maxAllocs float64
}

var actionShapes = []actionShape{
	{"empty", 4, 0, false, Options{Transport: TransportRaw}, 7},
	{"single", 4, 1, false, Options{Transport: TransportRaw}, 8},
	{"storm", 8, 8, false, Options{Transport: TransportRaw}, 8},
	{"reliable", 4, 2, false, Options{Transport: TransportReliable, WireEncoding: true}, 41},
	{"nested", 4, 2, true, Options{Transport: TransportRaw}, 16},
}

// action returns one Submit+Wait of sh's action on s, failing tb on an
// outcome other than the expected one.
func (sh actionShape) action(tb testing.TB, s *Server) func() {
	members := make([]ident.ObjectID, sh.n)
	bodies := make(map[ident.ObjectID]Body, len(members))
	for i := range members {
		members[i] = ident.ObjectID(i + 1)
		bodies[members[i]] = func(*Context) error { return nil }
	}
	want := ""
	for _, m := range members[:sh.raisers] {
		bodies[m] = func(ctx *Context) error { ctx.Raise("E1"); return nil }
		want = "E1"
	}
	if sh.nested {
		inner := &ActionSpec{
			Name: "inner", Tree: testTree("E1"), Members: members,
			Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
		}
		resolved := want
		for m, body := range bodies {
			bodies[m] = func(ctx *Context) error {
				if res, err := ctx.Enclose(inner, body); err != nil || !res.Completed || res.Resolved != resolved {
					tb.Errorf("nested res=%+v err=%v", res, err)
				}
				return nil
			}
		}
		want = "" // resolved inside the nested action, not at the top
	}
	def := Definition{
		Spec: ActionSpec{
			Name: sh.name, Tree: testTree("E1"), Members: members,
			Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
		},
		Bodies: bodies,
	}
	return func() {
		p, err := s.Submit(def)
		if err != nil {
			tb.Fatal(err)
		}
		if out, err := p.Wait(); err != nil || !out.Completed || out.Resolved != want {
			tb.Fatalf("out=%+v err=%v", out, err)
		}
	}
}
