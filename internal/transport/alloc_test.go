package transport

import (
	"testing"

	"repro/internal/ident"
)

// TestDeterministicStepAllocs pins the fabric's steady-state send/step path
// at zero allocations: per-pair rings reuse their buffers once a pair has
// carried a message, instead of the old `q = q[1:]` dequeue that leaked the
// front capacity and reallocated per message. A partition policy that leaves
// the pair alone adds nothing either.
func TestDeterministicStepAllocs(t *testing.T) {
	var cuts Partitions
	cuts.Set("elsewhere", 9)
	d := NewDeterministic(Options{Faults: cuts.Verdict})
	d.Register(2, func(Message) {})
	m := Message{From: 1, To: 2, Kind: "k"}
	// Warm-up allocates the pair's ring and its activation slot.
	if err := d.Send(m); err != nil {
		t.Fatal(err)
	}
	d.Step()
	avg := testing.AllocsPerRun(500, func() {
		if err := d.Send(m); err != nil {
			t.Fatal(err)
		}
		if !d.Step() {
			t.Fatal("no pending message")
		}
	})
	if avg != 0 {
		t.Fatalf("send+step: %v allocs/op, want 0", avg)
	}
}

// TestDeterministicBurstAllocs is the storm shape: a burst of messages from
// many senders to one destination, fully drained, repeated. After the first
// burst has grown each pair's ring, later bursts must not allocate.
func TestDeterministicBurstAllocs(t *testing.T) {
	const senders = 16
	d := NewDeterministic(Options{})
	d.Register(1, func(Message) {})
	burst := func() {
		for from := 2; from <= senders+1; from++ {
			for i := 0; i < 4; i++ {
				if err := d.Send(Message{From: ident.ObjectID(from), To: 1, Kind: "k"}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := d.Drain(1000); err != nil {
			t.Fatal(err)
		}
	}
	burst() // grow the rings once
	if avg := testing.AllocsPerRun(100, burst); avg != 0 {
		t.Fatalf("burst drain: %v allocs/op, want 0", avg)
	}
}

// TestRingFIFOAndReuse exercises the ring through wrap-around and growth,
// checking FIFO order end to end.
func TestRingFIFOAndReuse(t *testing.T) {
	var r ring
	seq := ident.ObjectID(0)
	push := func() ident.ObjectID {
		seq++
		r.push(Message{From: seq})
		return seq
	}
	// Interleave pushes and pops so head wraps around the initial buffer.
	next := ident.ObjectID(1)
	for i := 0; i < 20; i++ {
		push()
		push()
		if got := r.pop().From; got != next {
			t.Fatalf("pop %d: got %s, want %s", i, got, next)
		}
		next++
	}
	for r.len() > 0 {
		if got := r.pop().From; got != next {
			t.Fatalf("tail pop: got %s, want %s", got, next)
		}
		next++
	}
	if r.head != 0 {
		t.Fatalf("drained ring head = %d, want 0", r.head)
	}
}
