package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ident"
)

// collect returns a handler that appends delivered payloads to out.
func collect(out *[]any) Handler {
	return func(m Message) { *out = append(*out, m.Payload) }
}

func TestDeterministicPairFIFO(t *testing.T) {
	d := NewDeterministic(Options{})
	var got []any
	d.Register(2, collect(&got))
	for i := 0; i < 5; i++ {
		if err := d.Send(Message{From: 1, To: 2, Kind: "k", Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Drain(100); err != nil {
		t.Fatal(err)
	}
	if want := []any{0, 1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("delivery order = %v, want %v", got, want)
	}
}

func TestDeterministicPairActivationOrder(t *testing.T) {
	// Pairs activate in first-send order; the default chooser always picks
	// the first active pair, so 1->3 drains before 2->3 activates its turn.
	d := NewDeterministic(Options{})
	var got []any
	d.Register(3, collect(&got))
	_ = d.Send(Message{From: 1, To: 3, Payload: "a1"})
	_ = d.Send(Message{From: 2, To: 3, Payload: "b1"})
	_ = d.Send(Message{From: 1, To: 3, Payload: "a2"})
	if err := d.Drain(10); err != nil {
		t.Fatal(err)
	}
	if want := []any{"a1", "a2", "b1"}; !reflect.DeepEqual(got, want) {
		t.Errorf("delivery order = %v, want %v", got, want)
	}
}

func TestDeterministicDrainBudget(t *testing.T) {
	d := NewDeterministic(Options{})
	d.Register(2, func(Message) {})
	for i := 0; i < 5; i++ {
		_ = d.Send(Message{From: 1, To: 2})
	}
	if err := d.Drain(3); !errors.Is(err, ErrNoQuiescence) {
		t.Errorf("Drain(3) = %v, want ErrNoQuiescence", err)
	}
	if err := d.Drain(10); err != nil {
		t.Errorf("second Drain = %v", err)
	}
	if got := d.Pending(); got != 0 {
		t.Errorf("Pending = %d after drain", got)
	}
}

func TestDeterministicClosedSend(t *testing.T) {
	d := NewDeterministic(Options{})
	_ = d.Close()
	if err := d.Send(Message{From: 1, To: 2}); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after Close = %v, want ErrClosed", err)
	}
}

// doubler is a test codec: Append writes the body's exception twice, Decode
// checks the halves agree and keeps one, proving both sides of the boundary
// run exactly once.
type doubler struct{}

func (doubler) Size(m Message) (int, bool) { return 2 * len(m.Body.Exc), true }

func (doubler) Append(dst []byte, m Message) ([]byte, error) {
	return append(append(dst, m.Body.Exc...), m.Body.Exc...), nil
}

func (doubler) Decode(m Message, b []byte) (Message, error) {
	half := len(b) / 2
	if string(b[:half]) != string(b[half:]) {
		return m, fmt.Errorf("not doubled: %q", b)
	}
	m.Body.Exc = string(b[:half])
	return m, nil
}

func TestDeterministicCodecBoundary(t *testing.T) {
	d := NewDeterministic(Options{Codec: doubler{}})
	var got []string
	d.Register(2, func(m Message) { got = append(got, m.Body.Exc) })
	_ = d.Send(Message{From: 1, To: 2, Body: Body{Exc: "x"}})
	if err := d.Drain(10); err != nil {
		t.Fatal(err)
	}
	if want := []string{"x"}; !reflect.DeepEqual(got, want) {
		t.Errorf("body through codec = %v, want %v", got, want)
	}
}

func TestDeterministicFilterDropConsumesStep(t *testing.T) {
	census := NewCensus()
	d := NewDeterministic(Options{Sink: census})
	var got []any
	d.Register(2, collect(&got))
	d.SetFilter(func(m Message) bool { return m.Payload != "dropme" })
	_ = d.Send(Message{From: 1, To: 2, Payload: "dropme"})
	_ = d.Send(Message{From: 1, To: 2, Payload: "keep"})
	if !d.Step() {
		t.Fatal("first step found nothing pending")
	}
	if len(got) != 0 {
		t.Errorf("filtered message delivered: %v", got)
	}
	if err := d.Drain(10); err != nil {
		t.Fatal(err)
	}
	if want := []any{"keep"}; !reflect.DeepEqual(got, want) {
		t.Errorf("deliveries = %v, want %v", got, want)
	}
	if census.DroppedCount() != 1 || census.DeliveredCount() != 1 {
		t.Errorf("census dropped=%d delivered=%d, want 1/1",
			census.DroppedCount(), census.DeliveredCount())
	}
}

func TestSeededFaultsDeterministic(t *testing.T) {
	a := SeededFaults(42, 0.2, 0.1)
	b := SeededFaults(42, 0.2, 0.1)
	counts := map[Verdict]int{}
	for seq := 1; seq <= 2000; seq++ {
		va := a(Message{From: 1, To: 2})
		vb := b(Message{From: 1, To: 2})
		if va != vb {
			t.Fatalf("seq %d: verdicts differ (%v vs %v)", seq, va, vb)
		}
		counts[va]++
	}
	// Rates should be in the right ballpark (binomial, n=2000).
	if d := counts[Drop]; d < 300 || d > 500 {
		t.Errorf("drops = %d over 2000 at rate 0.2", d)
	}
	if d := counts[Duplicate]; d < 120 || d > 280 {
		t.Errorf("duplicates = %d over 2000 at rate 0.1", d)
	}
	// Different pairs see different schedules, each counted on its own.
	c := SeededFaults(42, 0.2, 0.1)
	same := 0
	for seq := 1; seq <= 200; seq++ {
		if c(Message{From: 1, To: 2}) == c(Message{From: 3, To: 4}) {
			same++
		}
	}
	if same == 200 {
		t.Error("pairs (1,2) and (3,4) drew identical schedules")
	}
}

func TestDeterministicFaultCounts(t *testing.T) {
	// A policy dropping every 3rd message and duplicating every 4th gives
	// exact expected counts: out of 12, seqs 3,6,9,12 drop (4), seqs 4,8
	// duplicate (2; 12 is already dropped), the rest deliver once.
	census := NewCensus()
	seq := 0
	d := NewDeterministic(Options{
		Sink: census,
		Faults: func(Message) Verdict {
			seq++
			if seq%3 == 0 {
				return Drop
			}
			if seq%4 == 0 {
				return Duplicate
			}
			return Deliver
		},
	})
	var got []any
	d.Register(2, collect(&got))
	for i := 1; i <= 12; i++ {
		_ = d.Send(Message{From: 1, To: 2, Kind: "k", Payload: i})
	}
	if err := d.Drain(100); err != nil {
		t.Fatal(err)
	}
	want := []any{1, 2, 4, 4, 5, 7, 8, 8, 10, 11}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("deliveries = %v, want %v", got, want)
	}
	if census.TotalSent() != 12 || census.DroppedCount() != 4 ||
		census.DeliveredCount() != 10 {
		t.Errorf("census sent=%d dropped=%d delivered=%d, want 12/4/10",
			census.TotalSent(), census.DroppedCount(), census.DeliveredCount())
	}
}

// TestRandomizedReproducible: a seeded chooser gives one interleaving per
// seed and keeps per-pair FIFO.
func TestRandomizedReproducible(t *testing.T) {
	run := func(seed int64) []any {
		r := NewDeterministic(Options{})
		r.SetChooser(RandChooser(rand.New(rand.NewSource(seed))))
		var got []any
		r.Register(9, collect(&got))
		for from := 1; from <= 4; from++ {
			for i := 0; i < 5; i++ {
				_ = r.Send(Message{From: ident.ObjectID(from), To: 9,
					Payload: fmt.Sprintf("%d/%d", from, i)})
			}
		}
		if err := r.Drain(100); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed diverged:\n%v\n%v", a, b)
	}
	if c := run(8); reflect.DeepEqual(a, c) {
		t.Log("seeds 7 and 8 produced the same interleaving (possible but unlikely)")
	}
	// Per-pair FIFO must hold regardless of interleaving.
	seen := map[string]int{}
	for _, p := range a {
		s := p.(string)
		from, idx := s[:1], int(s[2]-'0')
		if idx != seen[from] {
			t.Fatalf("pair %s delivered out of order: got index %d, want %d", from, idx, seen[from])
		}
		seen[from]++
	}
}

func TestModelCheckerHooks(t *testing.T) {
	d := NewDeterministic(Options{})
	var got []any
	d.Register(9, collect(&got))
	_ = d.Send(Message{From: 1, To: 9, Payload: "a"})
	_ = d.Send(Message{From: 2, To: 9, Payload: "b"})
	if got, want := d.PendingPairs(), 2; got != want {
		t.Fatalf("PendingPairs = %d, want %d", got, want)
	}
	if !d.StepChoice(1) {
		t.Fatal("StepChoice(1) delivered nothing")
	}
	if want := []any{"b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after StepChoice(1): %v, want %v", got, want)
	}
	if !d.StepChoice(0) {
		t.Fatal("StepChoice(0) delivered nothing")
	}
	if d.StepChoice(0) {
		t.Error("StepChoice on empty fabric delivered")
	}
	if got, want := d.PendingPairs(), 0; got != want {
		t.Errorf("PendingPairs = %d, want %d", got, want)
	}
}
