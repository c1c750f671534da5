package protocol

import (
	"fmt"
	"testing"

	"repro/internal/exception"
	"repro/internal/ident"
	"repro/internal/trace"
)

// allocHarness is a two-engine pair over a preallocated message queue: sends
// append to the queue, drain pumps it to the destination engines. The queue
// never reallocates in steady state, so testing.AllocsPerRun sees only the
// engines' own allocations.
type allocHarness struct {
	t       testing.TB
	engines map[ident.ObjectID]*Engine
	queue   []struct {
		to ident.ObjectID
		m  Msg
	}
}

func newAllocHarness(t testing.TB) *allocHarness {
	t.Helper()
	h := &allocHarness{t: t, engines: make(map[ident.ObjectID]*Engine, 2)}
	h.queue = make([]struct {
		to ident.ObjectID
		m  Msg
	}, 0, 64)
	tree := exception.NewBuilder("root").Add("E1", "root").Add("E2", "root").MustBuild()
	members := []ident.ObjectID{1, 2}
	send := func(to ident.ObjectID, m Msg) {
		h.queue = append(h.queue, struct {
			to ident.ObjectID
			m  Msg
		}{to, m})
	}
	frame := Frame{Action: 1, Path: []ident.ActionID{1}, Members: members, Tree: tree}
	for _, obj := range members {
		h.engines[obj] = NewEngine(obj, Hooks{Send: send})
		if err := h.engines[obj].EnterAction(frame); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func (h *allocHarness) drain() {
	for i := 0; i < len(h.queue); i++ {
		d := h.queue[i]
		h.engines[d.to].HandleMessage(d.m)
	}
	h.queue = h.queue[:0]
}

// cycle runs one complete resolution at action 1 — raise, ACK exchange,
// chooser commit — then deletes the committed record so the next cycle
// re-resolves the same action (steady state rather than map growth).
func (h *allocHarness) cycle() {
	if ok, err := h.engines[1].RaiseLocal("E1"); err != nil || !ok {
		h.t.Fatalf("raise: ok=%v err=%v", ok, err)
	}
	h.drain()
	for _, e := range h.engines {
		if exc, ok := e.CommittedAt(1); !ok || exc != "E1" {
			h.t.Fatalf("object %s: committed %q (ok=%v), want E1", e.Self(), exc, ok)
		}
		delete(e.committed, 1)
	}
}

// TestEngineCommitCycleAllocs pins the engine's steady-state hot path at zero
// allocations per commit cycle: clearResolution clears the lists in place,
// the replay/resolve/chooser paths run on reusable scratch buffers, and no
// trace detail is built when the Log hook is nil. (The old clearResolution
// allocated four fresh maps per commit.)
func TestEngineCommitCycleAllocs(t *testing.T) {
	h := newAllocHarness(t)
	h.cycle() // warm the scratch buffers and map buckets
	if avg := testing.AllocsPerRun(200, h.cycle); avg != 0 {
		t.Fatalf("steady-state commit cycle: %v allocs/op, want 0", avg)
	}
}

// TestEngineCommitCycleAllocsLogged is the same cycle with a Log hook that
// counts into a census, as every engine a core server runs has: the chooser's
// LE detail costs one
// string, and its bytes are what fmt's %v made of LE (EXPERIMENTS.md quotes
// them).
func TestEngineCommitCycleAllocsLogged(t *testing.T) {
	h := newAllocHarness(t)
	census := trace.NewCensus()
	var chosen string // the last chooser detail
	record := func(ev trace.Event) {
		census.Record(ev)
		if ev.Kind == trace.EvCommitChosen {
			chosen = ev.Detail
		}
	}
	for _, e := range h.engines {
		e.hooks.Log = record
	}
	h.cycle()
	if avg := testing.AllocsPerRun(200, h.cycle); avg > 1 {
		t.Fatalf("logged commit cycle: %v allocs/op, want at most 1", avg)
	}
	if want := fmt.Sprintf("LE=%v", []Raised{{Action: 1, Obj: 1, Exc: "E1"}}); chosen != want {
		t.Fatalf("chooser detail %q, want %q", chosen, want)
	}
}

// TestEngineStragglerPathsAllocs covers the non-committing hot paths: a
// post-commit Exception (straggler still owed its ACK), a stale ACK and a
// stale NestedCompleted must not allocate either.
func TestEngineStragglerPathsAllocs(t *testing.T) {
	tree := exception.NewBuilder("root").Add("E1", "root").MustBuild()
	e := NewEngine(1, Hooks{Send: func(ident.ObjectID, Msg) {}})
	frame := Frame{Action: 1, Path: []ident.ActionID{1},
		Members: []ident.ObjectID{1, 2}, Tree: tree}
	if err := e.EnterAction(frame); err != nil {
		t.Fatal(err)
	}
	e.committed[1] = "E1"
	exc := Msg{Kind: KindException, Action: 1, Path: frame.Path, From: 2, Exc: "E1"}
	ack := Msg{Kind: KindAck, Action: 1, From: 2}
	nc := Msg{Kind: KindNestedCompleted, Action: 1, Path: frame.Path, From: 2}
	avg := testing.AllocsPerRun(200, func() {
		e.HandleMessage(exc)
		e.HandleMessage(ack)
		e.HandleMessage(nc)
	})
	if avg != 0 {
		t.Fatalf("straggler paths: %v allocs/op, want 0", avg)
	}
}

// BenchmarkEngineCommitCycle is the regression benchmark for the
// clear-in-place fix: `go test -bench EngineCommitCycle -benchmem` showed
// ~30 allocs/op before clearResolution reused its maps, 0 after.
func BenchmarkEngineCommitCycle(b *testing.B) {
	h := newAllocHarness(b)
	h.cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.cycle()
	}
}
