package transport

import (
	"math/rand"

	"repro/internal/ident"
)

// Deterministic is the in-memory, single-goroutine fabric: one FIFO queue
// per ordered object pair, with messages delivered one Step at a time. It is
// the backend behind protocol.Sim, protocol.CentralSim and the bounded model
// checker (protocol.Explore), so tests and the experiment harness can
// measure exact message counts without scheduler noise. Step picks among
// the pairs with pending messages, in pair-activation order (or via a
// pluggable chooser for randomised interleaving).
//
// The model checker's hooks — PendingPairs (the branching factor) and
// StepChoice (deliver the head of the i-th non-empty pair) — live here too,
// so schedule enumeration works over any scenario built on this backend.
type Deterministic struct {
	opts Options

	handlers map[ident.ObjectID]Handler
	queues   map[pair]*ring
	order    []pair

	chooser func(n int) int
	filter  func(m Message) bool
	closed  bool
}

// ring is a reusable FIFO of message envelopes: dequeuing advances a head
// index instead of re-slicing, so a drained queue's buffer is reused by the
// next enqueue. The naive `q = q[1:]` discipline leaks the front capacity and
// reallocates once per message under storm load; per-pair rings are the
// envelope pool that makes fabric steps allocation-free in steady state.
type ring struct {
	buf  []Message
	head int
	n    int
}

func (r *ring) len() int { return r.n }

//caa:noalloc
func (r *ring) push(m Message) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = m
	r.n++
}

//caa:noalloc
func (r *ring) pop() Message {
	m := r.buf[r.head]
	r.buf[r.head] = Message{} // release payload references
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	if r.n == 0 {
		r.head = 0
	}
	return m
}

func (r *ring) grow() {
	newCap := 2 * len(r.buf)
	if newCap < 4 {
		newCap = 4
	}
	buf := make([]Message, newCap)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf, r.head = buf, 0
}

// Options configure a Deterministic fabric.
type Options struct {
	// Codec, when non-nil, passes every body it translates through bytes at
	// Send.
	Codec Codec
	// Sink, when non-nil, observes sends, deliveries, drops, duplications.
	Sink Sink
	// Faults, when non-nil, decides a drop/duplicate verdict per send.
	Faults FaultPolicy
}

// NewDeterministic creates an empty fabric.
func NewDeterministic(opts Options) *Deterministic {
	return &Deterministic{
		opts:     opts,
		handlers: make(map[ident.ObjectID]Handler),
		queues:   make(map[pair]*ring),
	}
}

var _ Transport = (*Deterministic)(nil)

// Register installs the delivery handler for obj, replacing any previous
// one. Messages to objects without a handler are consumed silently, exactly
// as a network delivers to a crashed node.
func (d *Deterministic) Register(obj ident.ObjectID, h Handler) {
	d.handlers[obj] = h
}

// SetChooser installs the delivery-choice function: given n pending pairs it returns the index of
// the pair to deliver from. Nil restores the default (always the first, in
// activation order). With RandChooser it is the seeded randomised
// interleaving that protocol.Sim's SetRand installs.
func (d *Deterministic) SetChooser(choose func(n int) int) { d.chooser = choose }

// RandChooser adapts a *rand.Rand into a delivery chooser for SetChooser:
// per-pair FIFO is preserved while the interleaving across pairs is drawn
// from the RNG (one Intn per considered pair set).
func RandChooser(rng *rand.Rand) func(n int) int {
	return func(n int) int { return rng.Intn(n) }
}

// SetFilter installs a delivery-time filter used for failure injection: a
// message is silently dropped (still consuming its Step) when the filter
// returns false. Crashing an object is modelled by dropping everything it
// sends from some point on.
func (d *Deterministic) SetFilter(f func(m Message) bool) { d.filter = f }

// Send accepts a message: the codec passes its body through bytes, the fault
// policy decides its fate, and surviving copies join the pair's FIFO queue.
//
//caa:noalloc
func (d *Deterministic) Send(m Message) error {
	if d.closed {
		return ErrClosed
	}
	if d.opts.Codec != nil {
		var err error
		if m, err = roundTrip(d.opts.Codec, m); err != nil {
			return err
		}
	}
	n := copies(d.opts.Faults, d.opts.Sink, m)
	for i := 0; i < n; i++ {
		d.enqueue(m)
	}
	return nil
}

//caa:noalloc
func (d *Deterministic) enqueue(m Message) {
	key := pair{from: m.From, to: m.To}
	q := d.queues[key]
	if q == nil {
		// A drained ring stays in the map so its buffer is reused; only a
		// pair's first-ever message allocates.
		q = &ring{} //protolint:allow noalloc only a pair's first-ever message allocates; the drained ring is reused
		d.queues[key] = q
	}
	if q.len() == 0 {
		d.order = append(d.order, key)
	}
	q.push(m)
}

// Close marks the fabric closed; pending messages are discarded.
func (d *Deterministic) Close() error {
	d.closed = true
	d.queues = make(map[pair]*ring)
	d.order = nil
	return nil
}

// Pending returns the number of queued messages.
func (d *Deterministic) Pending() int {
	n := 0
	for _, q := range d.queues {
		n += q.len()
	}
	return n
}

// Step delivers one pending message; it reports whether one was pending.
// The pair is picked by the chooser (default: first in activation order).
//
//caa:noalloc
func (d *Deterministic) Step() bool {
	for len(d.order) > 0 {
		i := 0
		if d.chooser != nil {
			i = d.chooser(len(d.order))
		}
		key := d.order[i]
		q := d.queues[key]
		if q.len() == 0 {
			d.order = append(d.order[:i], d.order[i+1:]...)
			continue
		}
		m := q.pop()
		if q.len() == 0 {
			d.order = append(d.order[:i], d.order[i+1:]...)
		}
		d.deliver(m)
		return true
	}
	return false
}

// deliver applies the delivery-time filter, then invokes the destination
// handler.
//
//caa:noalloc
func (d *Deterministic) deliver(m Message) {
	if d.filter != nil && !d.filter(m) {
		if d.opts.Sink != nil {
			d.opts.Sink.Dropped(m)
		}
		return // dropped by failure injection; the step is still consumed
	}
	h, ok := d.handlers[m.To]
	if !ok {
		return
	}
	if d.opts.Sink != nil {
		d.opts.Sink.Delivered(m)
	}
	h(m)
}

// Drain delivers messages until quiescence, bounded by maxSteps. It returns
// ErrNoQuiescence when messages are still pending after the budget.
func (d *Deterministic) Drain(maxSteps int) error {
	for i := 0; i < maxSteps; i++ {
		if !d.Step() {
			return nil
		}
	}
	if d.Pending() == 0 {
		return nil
	}
	return ErrNoQuiescence
}

// PendingPairs returns the number of ordered pairs with queued messages —
// the branching factor of the next delivery choice for the model checker.
func (d *Deterministic) PendingPairs() int {
	n := 0
	for _, key := range d.order {
		if d.queues[key].len() > 0 {
			n++
		}
	}
	return n
}

// StepChoice delivers the next message of the i-th non-empty pair (0-based,
// in pair-activation order). It reports whether a message was delivered.
func (d *Deterministic) StepChoice(i int) bool {
	idx := 0
	for pos, key := range d.order {
		q := d.queues[key]
		if q.len() == 0 {
			continue
		}
		if idx == i {
			m := q.pop()
			if q.len() == 0 {
				d.order = append(d.order[:pos], d.order[pos+1:]...)
			}
			d.deliver(m)
			return true
		}
		idx++
	}
	return false
}
