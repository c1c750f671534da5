package core

import (
	"errors"
	"sync"

	"repro/internal/fifo"
	"repro/internal/group"
	"repro/internal/ident"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// Admission errors.
var (
	// ErrOverload reports that a submission was rejected because the server
	// already has Options.MaxInFlight actions executing (OverloadReject).
	ErrOverload = errors.New("core: server overloaded, max in-flight actions reached")
	// ErrClosed reports a submission to a closed server.
	ErrClosed = errors.New("core: server closed")
)

// dispatcher multiplexes one object's shared transport across concurrent
// actions. It has no goroutine: route is the deliver function the transport
// was bound with, so whichever goroutine delivers to the object's port (the
// sender's, a latency link's, a socket reader's) carries each delivery
// through the reliable layer and into the mailbox of the session owning its
// envelope's action tag. The object owns no goroutine on the receive path. The
// transport, and with it the object's node binding, reliable-layer state and
// socket fabric, lives as long as the server, not as long as any one action.
type dispatcher struct {
	obj ident.ObjectID

	// bound closes once the creator's bind concluded; tr and bindErr are
	// written before it and read only after.
	bound   chan struct{}
	tr      group.Transport
	bindErr error

	mu      sync.Mutex
	routes  map[ident.ActionID]*mailbox
	dropped int // deliveries with no live route (e.g. post-completion acks)
}

// dispatcherFor returns (creating and binding on demand) the shared
// dispatcher hosting obj. Creation is single-flight per object: the first
// caller publishes the entry under the server lock and binds outside it
// (binding dials listeners on the TCP backend), racing callers wait for that
// one bind, and a failed bind takes its entry out again.
func (s *Server) dispatcherFor(obj ident.ObjectID) (*dispatcher, error) {
	s.mu.Lock()
	if s.dispatchers == nil {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	d, ok := s.dispatchers[obj]
	if !ok {
		d = &dispatcher{
			obj:    obj,
			bound:  make(chan struct{}),
			routes: make(map[ident.ActionID]*mailbox),
		}
		s.dispatchers[obj] = d
	}
	s.mu.Unlock()
	if !ok {
		d.tr, d.bindErr = s.newTransport(obj, d.route)
		if d.bindErr != nil {
			s.mu.Lock()
			delete(s.dispatchers, obj) // still ours: nobody inserts over a live entry
			s.mu.Unlock()
		}
		close(d.bound)
	}
	<-d.bound
	if d.bindErr != nil {
		return nil, d.bindErr
	}
	return d, nil
}

// route hands one delivery to the session owning its action tag. It runs on
// the delivering goroutine, under R3's lock on the reliable transports, and
// never blocks on a session: mailboxes are unbounded, so one slow engine
// cannot stall the traffic of every other action sharing the object.
//
// The put happens under d.mu: once unregister has returned no put is in
// flight, so a recycled mailbox can never receive a finished action's late
// message.
//
//caa:noalloc
func (d *dispatcher) route(dv group.Delivery) {
	d.mu.Lock()
	if mb := d.routes[dv.Action]; mb != nil {
		mb.put(dv)
	} else {
		// No live session owns the tag: a stale delivery for a completed
		// action (late retransmission, post-commit ACK). Dropping it is
		// safe — the session already concluded — and counted for tests.
		d.dropped++
	}
	d.mu.Unlock()
}

// register installs the mailbox receiving deliveries tagged with action.
func (d *dispatcher) register(action ident.ActionID, mb *mailbox) {
	d.mu.Lock()
	d.routes[action] = mb
	d.mu.Unlock()
}

// unregister removes a session's route; subsequent deliveries for it drop.
func (d *dispatcher) unregister(action ident.ActionID) {
	d.mu.Lock()
	delete(d.routes, action)
	d.mu.Unlock()
}

// close tears the shared transport down and returns once its port has
// stopped, so route is not running and will not run again. An entry still
// binding is waited for first; one whose bind failed has no transport.
func (d *dispatcher) close() {
	<-d.bound
	if d.bindErr == nil {
		d.tr.Close()
	}
}

// mailbox is one session's unbounded FIFO inbox on a dispatcher. put never
// blocks (it runs on the goroutine delivering to the shared transport); the
// put that finds the mailbox idle arms it and hands a drain for its
// participant to a pool worker, which steps the engine with each delivery
// until take finds the queue empty and disarms it. At most one drain per
// mailbox is armed at a time. A mailbox is pooled with its participant,
// queue capacity included: deliveries arrive in bursts, and a per-action
// mailbox would regrow through every doubling each time.
//
// An armed mailbox holds one vclock.Mailbox token, from the put that armed it
// until take finds it empty: its drain has work. A drain that sleeps on the
// clock meanwhile (an abortion handler that works for a while) lends that
// token, so the deliveries queued behind it do not stop the clock it waits on.
type mailbox struct {
	//protolint:allow resetcheck for life: a drain's last take may run after close has returned and the participant gone back to the pool
	srv *Server
	//protolint:allow resetcheck for life: the participant the mailbox is pooled with, whose engine its drains step
	owner *participant

	mu     sync.Mutex
	queue  fifo.Queue[group.Delivery]
	armed  bool // a drain has been handed out and has not found the queue empty
	closed bool // puts are dropped; a closer waits for the armed drain
	//protolint:allow resetcheck for life: a condition on mu, which nobody waits on once close has returned
	idle sync.Cond // on mu: the drain found the queue empty
}

func newMailbox(s *Server, owner *participant) *mailbox {
	m := &mailbox{srv: s, owner: owner}
	m.idle.L = &m.mu
	return m
}

// put queues one delivery, by value, unless the mailbox is closed. The put
// that arms the mailbox takes its token and hands its drain to a worker.
//
//caa:noalloc
func (m *mailbox) put(d group.Delivery) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.queue.Push(d)
	arm := !m.armed
	m.armed = true
	m.mu.Unlock()
	if arm {
		m.srv.clk.Hold(vclock.Mailbox)
		m.srv.spawn(task{op: taskDrain, p: m.owner})
	}
}

// take pops the oldest delivery for the drain. On an empty queue it disarms
// the mailbox and gives its token back. A closer waiting meanwhile has lent
// the drain the run's token: take holds it again for the closer before the
// mailbox's token goes (the waker rule in docs/VCLOCK.md).
//
//caa:noalloc
func (m *mailbox) take() (group.Delivery, bool) {
	m.mu.Lock()
	d, ok := m.queue.Pop()
	if !ok {
		m.armed = false
		if m.closed {
			m.srv.clk.Hold(vclock.Run)
			m.idle.Signal()
		}
	}
	m.mu.Unlock()
	if !ok {
		m.srv.clk.Release(vclock.Mailbox)
	}
	return d, ok
}

// close discards what is queued, drops every later put, and returns once no
// drain is running. The caller holds the run's token; it lends it while it
// waits, for the drain may be asleep on the clock (an abortion handler).
func (m *mailbox) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.queue.Reset()
	if m.armed {
		m.srv.clk.Release(vclock.Run)
	}
	for m.armed {
		m.idle.Wait()
	}
}

// Reset reopens a closed mailbox, once its route is unregistered.
func (m *mailbox) Reset() {
	m.mu.Lock()
	m.queue.Reset()
	m.armed, m.closed = false, false
	m.mu.Unlock()
}

// sessionRoute is one participant's attachment to the shared runtime: sends
// go out through the object's shared transport stamped with the session's
// root action tag, and deliveries tagged with it arrive in the inbox. The
// inbox belongs to the pooled participant; disp and root to one session.
type sessionRoute struct {
	disp  *dispatcher
	root  ident.ActionID
	inbox *mailbox
}

// attach registers the inbox on d for the session tagged root.
func (r *sessionRoute) attach(d *dispatcher, root ident.ActionID) {
	r.disp, r.root = d, root
	d.register(root, r.inbox)
}

// send transmits one protocol message on the shared transport, tagged for
// this session. The body travels by value all the way to the receiving
// engine.
//
//caa:noalloc
func (r *sessionRoute) send(to ident.ObjectID, kind string, body transport.Body) error {
	return r.disp.tr.SendMessage(transport.Message{To: to, Kind: kind, Action: r.root, Body: body})
}

// notify transmits one membership control message (heartbeat, view, rejoin
// or lease traffic) on the shared transport, tagged for this session.
func (r *sessionRoute) notify(to ident.ObjectID, kind string, payload any) error {
	return r.disp.tr.SendTagged(to, kind, r.root, payload)
}

// detach unregisters the session from the dispatcher and reopens the inbox
// for the next session. The inbox must have been closed. The shared
// transport stays up for other sessions.
func (r *sessionRoute) detach() {
	r.disp.unregister(r.root)
	r.inbox.Reset()
}

// Pending is an asynchronously submitted action; Wait blocks until it
// concludes.
type Pending struct {
	done sync.WaitGroup // 1 until the action concludes
	def  Definition     // what the worker runs; cleared once it has
	out  Outcome
	err  error
}

// Wait blocks until the action concludes and returns its outcome.
func (p *Pending) Wait() (Outcome, error) {
	p.done.Wait()
	return p.out, p.err
}

// Submit starts a top-level CA action asynchronously. Admission control runs
// synchronously — Submit blocks (OverloadBlock) or fails with ErrOverload
// (OverloadReject) while the server is at MaxInFlight, and fails with
// ErrClosed after Close — so an open-loop caller feels backpressure at
// submission time, not at Wait time.
func (s *Server) Submit(def Definition) (*Pending, error) {
	if err := s.admit(); err != nil {
		return nil, err
	}
	p := &Pending{def: def}
	p.done.Add(1)
	s.spawn(task{op: taskSubmit, pend: p})
	return p, nil
}

// runSubmitted runs a submitted action on its worker and concludes p.
func (s *Server) runSubmitted(p *Pending) {
	p.out, p.err = s.runAttempt(p.def, 0, 1)
	p.def = Definition{}
	s.release()
	p.done.Done()
}
