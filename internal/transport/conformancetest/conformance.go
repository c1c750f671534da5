// Package conformancetest holds the one contract every delivery fabric must
// honour to a single, shared test suite. A backend passes by providing a
// Factory that builds a fresh fabric universe per subtest; the suite then
// checks the properties the protocol layers above (group, core) assume of
// any transport:
//
//   - every accepted send is delivered exactly once, with fields intact
//     (BasicDelivery)
//   - deliveries between one ordered pair arrive in send order (FIFOPerPair)
//   - the codec hook passes every body it translates through its bytes
//     exactly once, on every path (CodecRoundTrip)
//   - the sink's ledger balances: delivered = sent − dropped + duplicated
//     (SinkAccounting)
//   - a seeded fault schedule yields the same delivered multiset as on the
//     Deterministic reference backend, regardless of interleaving
//     (FaultScheduleParity)
//   - a partition (transport.Partitions as the fault policy) drops exactly
//     the messages crossing it, overlapping groups compose, healing restores
//     delivery, and uncut pairs keep FIFO order (Partitions)
//   - Close releases every goroutine the fabric started, promptly, even
//     with traffic still queued (CloseReleasesGoroutines, plus a leak check
//     after every other subtest)
//
// The suite is what makes "four fabrics, one behaviour" an enforced
// invariant rather than a design intention: a fifth backend passes the same
// gate or does not merge.
package conformancetest

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/transport"
)

// Options carry the transport-seam hooks a Factory must wire into the
// backend it builds.
type Options struct {
	Codec  transport.Codec
	Sink   transport.Sink
	Faults transport.FaultPolicy
}

// Fabric is the minimal surface the suite drives. Adapters wrap each
// backend's native API (Register/Drain, Bind over netsim, TCP peers) behind
// it.
type Fabric interface {
	// Register attaches an object with handler delivery. The suite
	// registers every object before the first Send.
	Register(obj ident.ObjectID, h transport.Handler)
	// Send routes one message. It must be safe for concurrent use.
	Send(m transport.Message) error
	// Settle blocks until delivery has finished: step backends drain their
	// queue; asynchronous backends wait until count() reaches want, then a
	// settling period for stragglers.
	Settle(count func() int, want int) error
	// Close shuts the whole universe down (fabric plus any substrate the
	// adapter owns, e.g. a netsim network).
	Close()
}

// Factory builds a fresh fabric universe for one subtest.
type Factory func(t *testing.T, opts Options) Fabric

// suite objects: a small full mesh is enough to exercise pair state without
// making the socket backends slow. Every leg sends it with one goroutine per
// sender.
const (
	objects = 4
	perPair = 25
)

// Run executes the conformance suite against one backend.
func Run(t *testing.T, factory Factory) {
	t.Run("BasicDelivery", func(t *testing.T) { testBasicDelivery(t, factory) })
	t.Run("FIFOPerPair", func(t *testing.T) { testFIFOPerPair(t, factory) })
	t.Run("CodecRoundTrip", func(t *testing.T) { testCodecRoundTrip(t, factory) })
	t.Run("SinkAccounting", func(t *testing.T) { testSinkAccounting(t, factory) })
	t.Run("FaultScheduleParity", func(t *testing.T) { testFaultScheduleParity(t, factory) })
	t.Run("Partitions", func(t *testing.T) { testPartitions(t, factory) })
	t.Run("CloseReleasesGoroutines", func(t *testing.T) { testCloseReleasesGoroutines(t, factory) })
}

// recorder counts and archives deliveries behind one lock; handlers on
// concurrent backends run from many goroutines.
type recorder struct {
	mu   sync.Mutex
	seen map[string]int
	msgs []transport.Message
	n    int
}

func newRecorder() *recorder { return &recorder{seen: make(map[string]int)} }

func (r *recorder) handler() transport.Handler {
	return func(m transport.Message) {
		r.mu.Lock()
		r.seen[fmt.Sprint(m.Payload)]++
		r.msgs = append(r.msgs, m)
		r.n++
		r.mu.Unlock()
	}
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// mesh sends perPair numbered messages along every ordered pair, payload
// "from->to#i", with every sender on its own goroutine: the interleaving
// across pairs is the scheduler's, each pair's order is fixed. Round r
// numbers its messages from r*perPair, so rounds sent one after another stay
// in FIFO order on each pair.
func mesh(send func(transport.Message) error, round int) (int, error) {
	errs := make(chan error, objects)
	for from := 1; from <= objects; from++ {
		go func(from int) {
			for i := round * perPair; i < (round+1)*perPair; i++ {
				for to := 1; to <= objects; to++ {
					if from == to {
						continue
					}
					if err := send(transport.Message{
						From:    ident.ObjectID(from),
						To:      ident.ObjectID(to),
						Kind:    "conformance",
						Payload: fmt.Sprintf("%d->%d#%d", from, to, i),
					}); err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}(from)
	}
	var err error
	for from := 1; from <= objects; from++ {
		if e := <-errs; e != nil {
			err = e
		}
	}
	return objects * (objects - 1) * perPair, err
}

func testBasicDelivery(t *testing.T, factory Factory) {
	defer LeakCheck(t)()
	rec := newRecorder()
	fab := factory(t, Options{})
	defer fab.Close()
	for o := 1; o <= objects; o++ {
		fab.Register(ident.ObjectID(o), rec.handler())
	}
	total, err := mesh(fab.Send, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Settle(rec.count, total); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.n != total {
		t.Fatalf("delivered %d of %d sends", rec.n, total)
	}
	for payload, n := range rec.seen {
		if n != 1 {
			t.Errorf("payload %q delivered %d times", payload, n)
		}
	}
	// Field integrity: every archived message's From/To match its payload.
	for _, m := range rec.msgs {
		var from, to, i int
		if _, err := fmt.Sscanf(m.Payload.(string), "%d->%d#%d", &from, &to, &i); err != nil {
			t.Fatalf("payload %v unparseable: %v", m.Payload, err)
		}
		if m.From != ident.ObjectID(from) || m.To != ident.ObjectID(to) || m.Kind != "conformance" {
			t.Errorf("fields corrupted in flight: %+v", m)
		}
	}
}

func testFIFOPerPair(t *testing.T, factory Factory) {
	defer LeakCheck(t)()
	type pairKey struct{ from, to ident.ObjectID }
	var mu sync.Mutex
	last := make(map[pairKey]int)
	violations := 0
	n := 0
	handler := func(m transport.Message) {
		var from, to, i int
		fmt.Sscanf(m.Payload.(string), "%d->%d#%d", &from, &to, &i)
		key := pairKey{m.From, m.To}
		mu.Lock()
		if prev, ok := last[key]; ok && i != prev+1 {
			violations++
		} else if !ok && i != 0 {
			violations++
		}
		last[key] = i
		n++
		mu.Unlock()
	}
	count := func() int { mu.Lock(); defer mu.Unlock(); return n }

	fab := factory(t, Options{})
	defer fab.Close()
	for o := 1; o <= objects; o++ {
		fab.Register(ident.ObjectID(o), handler)
	}
	total, err := mesh(fab.Send, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Settle(count, total); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if violations != 0 {
		t.Errorf("%d FIFO violations across %d deliveries", violations, n)
	}
}

// prefixCodec is the suite's codec: it translates the body of every
// "conformance" message, whose Exc holds the label. Encode writes the label
// after a tag byte, Decode checks the tag and marks the label decoded.
// Backends that genuinely serialise (TCP) ship the bytes; in-process backends
// decode them at once — either way the handler must observe the label marked
// exactly once, proving both hooks run exactly once and in order.
type prefixCodec struct{}

func (prefixCodec) Size(m transport.Message) (int, bool) {
	return 1 + len(m.Body.Exc), m.Kind == "conformance"
}

func (prefixCodec) Append(dst []byte, m transport.Message) ([]byte, error) {
	return append(append(dst, 0xC0), m.Body.Exc...), nil
}

func (prefixCodec) Decode(m transport.Message, b []byte) (transport.Message, error) {
	if len(b) == 0 || b[0] != 0xC0 {
		return m, fmt.Errorf("conformance codec: bad wire value %v", b)
	}
	m.Body.Exc = "decoded " + string(b[1:])
	return m, nil
}

func testCodecRoundTrip(t *testing.T, factory Factory) {
	defer LeakCheck(t)()
	rec := newRecorder()
	fab := factory(t, Options{Codec: prefixCodec{}})
	defer fab.Close()
	for o := 1; o <= objects; o++ {
		fab.Register(ident.ObjectID(o), rec.handler())
	}
	// The label rides in the body, the codec's to translate.
	total, err := mesh(func(m transport.Message) error {
		m.Body.Exc, m.Payload = m.Payload.(string), nil
		return fab.Send(m)
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Settle(rec.count, total); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, m := range rec.msgs {
		var from, to, i int
		if _, err := fmt.Sscanf(m.Body.Exc, "decoded %d->%d#%d", &from, &to, &i); err != nil {
			t.Fatalf("body not decoded exactly once: %q", m.Body.Exc)
		}
	}
	if rec.n != total {
		t.Errorf("delivered %d of %d through the codec", rec.n, total)
	}
}

func testSinkAccounting(t *testing.T, factory Factory) {
	defer LeakCheck(t)()
	census := transport.NewCensus()
	rec := newRecorder()
	fab := factory(t, Options{Sink: census, Faults: transport.SeededFaults(7, 0.2, 0.2)})
	defer fab.Close()
	for o := 1; o <= objects; o++ {
		fab.Register(ident.ObjectID(o), rec.handler())
	}
	total, err := mesh(fab.Send, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Every verdict is drawn inside Send, so the send side of the ledger is
	// final; the expected delivery count is its balance.
	sent, dropped, duplicated := census.TotalSent(), census.DroppedCount(), census.DuplicatedCount()
	want := sent - dropped + duplicated
	if err := fab.Settle(rec.count, want); err != nil {
		t.Fatal(err)
	}
	if sent != total {
		t.Errorf("sink sent = %d, want %d", sent, total)
	}
	if delivered := census.DeliveredCount(); delivered != want {
		t.Errorf("ledger unbalanced: delivered %d, want sent(%d) - dropped(%d) + duplicated(%d) = %d",
			delivered, sent, dropped, duplicated, want)
	}
	if rec.count() != want {
		t.Errorf("handlers saw %d deliveries, the ledger balances at %d", rec.count(), want)
	}
	if dropped == 0 || duplicated == 0 {
		t.Errorf("fault schedule degenerate: dropped=%d duplicated=%d", dropped, duplicated)
	}
}

func testFaultScheduleParity(t *testing.T, factory Factory) {
	defer LeakCheck(t)()
	const seed = 2026
	faults := func() transport.FaultPolicy { return transport.SeededFaults(seed, 0.25, 0.15) }

	// Deterministic reference: the multiset every backend must reproduce.
	want := newRecorder()
	ref := NewStepFabric(transport.NewDeterministic(transport.Options{Faults: faults()}))
	for o := 1; o <= objects; o++ {
		ref.Register(ident.ObjectID(o), want.handler())
	}
	total, err := mesh(ref.Send, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Settle(nil, 0); err != nil {
		t.Fatal(err)
	}
	if want.n == 0 || want.n == total {
		t.Fatal("degenerate fault schedule")
	}

	rec := newRecorder()
	fab := factory(t, Options{Faults: faults()})
	defer fab.Close()
	for o := 1; o <= objects; o++ {
		fab.Register(ident.ObjectID(o), rec.handler())
	}
	if _, err := mesh(fab.Send, 0); err != nil {
		t.Fatal(err)
	}
	if err := fab.Settle(rec.count, want.n); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.n != want.n {
		t.Errorf("delivered %d, deterministic reference delivered %d", rec.n, want.n)
	}
	for payload, n := range want.seen {
		if got := rec.seen[payload]; got != n {
			t.Errorf("message %q: delivered %d, reference %d", payload, got, n)
		}
	}
	for payload := range rec.seen {
		if _, ok := want.seen[payload]; !ok {
			t.Errorf("message %q delivered but dropped on reference", payload)
		}
	}
}

// testPartitions sends one mesh round per cut. Each round names every
// object's side of every standing group; a pair communicates iff both its
// objects are on the same side of each. Exactly the messages of such pairs
// must arrive, and each pair's deliveries stay in send order across rounds.
func testPartitions(t *testing.T, factory Factory) {
	defer LeakCheck(t)()
	var cuts transport.Partitions
	rec := newRecorder()
	fab := factory(t, Options{Faults: cuts.Verdict})
	defer fab.Close()
	for o := 1; o <= objects; o++ {
		fab.Register(ident.ObjectID(o), rec.handler())
	}
	rounds := []struct {
		name string
		cut  func()
		side map[int]string // side[o]: the groups o is inside
	}{
		{"split {1,2} from {3,4}", func() { cuts.Set("a", 1, 2) }, map[int]string{1: "a", 2: "a"}},
		{"isolate 1 inside the split", func() { cuts.Set("b", 1) }, map[int]string{1: "ab", 2: "a"}},
		{"heal the split", func() { cuts.Heal("a") }, map[int]string{1: "b"}},
		{"heal the isolation", func() { cuts.Heal("b") }, map[int]string{}},
	}
	want := 0
	for r, round := range rounds {
		round.cut()
		if _, err := mesh(fab.Send, r); err != nil {
			t.Fatal(err)
		}
		for from := 1; from <= objects; from++ {
			for to := 1; to <= objects; to++ {
				if from != to && round.side[from] == round.side[to] {
					want += perPair
				}
			}
		}
		if err := fab.Settle(rec.count, want); err != nil {
			t.Fatalf("%s: %v", round.name, err)
		}
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.n != want {
		t.Errorf("delivered %d, want the %d messages no cut crossed", rec.n, want)
	}
	type pairKey struct{ from, to int }
	last := make(map[pairKey]int)
	for _, m := range rec.msgs {
		var from, to, i int
		fmt.Sscanf(m.Payload.(string), "%d->%d#%d", &from, &to, &i)
		round := rounds[i/perPair]
		if round.side[from] != round.side[to] {
			t.Errorf("%s: %v crossed the cut", round.name, m.Payload)
		}
		if prev, ok := last[pairKey{from, to}]; ok && i <= prev {
			t.Errorf("%d->%d: #%d delivered after #%d (reordered or duplicated)", from, to, i, prev)
		}
		last[pairKey{from, to}] = i
	}
}

func testCloseReleasesGoroutines(t *testing.T, factory Factory) {
	defer LeakCheck(t)()
	rec := newRecorder()
	fab := factory(t, Options{})
	for o := 1; o <= objects; o++ {
		fab.Register(ident.ObjectID(o), rec.handler())
	}
	// Close with traffic still in flight: shutdown must not wait for, nor
	// wedge on, queued messages.
	if _, err := mesh(fab.Send, 0); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		fab.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close wedged with traffic in flight")
	}
}
