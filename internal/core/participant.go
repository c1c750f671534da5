package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/exception"
	"repro/internal/group"
	"repro/internal/ident"
	"repro/internal/membership"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Suspension levels. Levels index the participant's action stack (0 =
// outermost). levelNone means "not suspended"; levelCancelled unwinds the
// whole body regardless of depth.
const (
	levelNone      = math.MaxInt32
	levelCancelled = -1
	levelNotParked = math.MinInt32
)

// handlerOutcome is what a resolution handler produced for one participant.
type handlerOutcome struct {
	action   ident.ActionID
	resolved string
	signal   string
	err      error
}

// request is a body's request to its engine goroutine. A body has at most one
// outstanding, so a request travels by value over the participant's events
// channel and is answered on its reply channel, both made once per pooled
// participant.
type request struct {
	op    requestOp
	level int       // the body's level: see post
	inst  *instance // opEnter, opLeave
	exc   string    // opRaise
}

type requestOp uint8

const (
	opEnter requestOp = iota // push inst's frame
	opLeave                  // pop inst's frame
	opRaise                  // raise exc in the active action
	opStop                   // end the engine loop; not answered
)

// participant is one participating object: a protocol engine loop plus a
// body, each run by a server worker (worker.go), communicating only through
// requests and suspension state.
// It attaches to its object's dispatcher through a sessionRoute: everything it
// sends — protocol messages and membership traffic alike — carries the
// session's root action tag, and everything so tagged arrives in its inbox.
//
// Participants come from the server's pool: newParticipant builds what one
// keeps for life (engine and hooks, mailbox, channels), run.join binds it to
// one run and Server.recycle returns it.
type participant struct {
	run    *run
	obj    ident.ObjectID
	route  sessionRoute
	engine *protocol.Engine
	hooks  protocol.Hooks // bound to this participant once, by newParticipant

	events chan request      // unbuffered: a body request, or stop
	reply  chan error        // 1-buffered: the answer to a body request
	result ParticipantResult // written by the body goroutine, read once it has returned

	// Membership monitoring (nil without Options.Membership). The detector
	// runs in fed mode — this participant's loop owns the session inbox and
	// tees heartbeats in — and the monitor's view changes drive run-level
	// expulsion.
	detector *group.Detector
	monitor  *membership.Monitor

	// estack mirrors the engine's action stack with run instances. Engine
	// goroutine only.
	estack []*instance

	// pending counts what may still touch p once its body and engine have
	// returned: handler tasks and Context.Sleep deadlines. recycle
	// leaves a participant with any to the garbage collector.
	pending atomic.Int32

	// Body/engine shared suspension state.
	smu          sync.Mutex
	parkCond     *sync.Cond
	suspendLevel int
	parkedLevel  int
	bodyDone     bool
	expelledSelf bool
	outcomes     []handlerOutcome // delivered, not yet taken; one at most but for nesting

	state     atomic.Int32  // how the body is blocked
	wake      chan struct{} // 1-buffered: the waker that claimed state signals here
	abandoned bool          // reply owes the answer to a request the body gave up on; body goroutine only
}

// Body states. A body about to block stores how, then re-checks what it waits
// for (in that order: a change made after the check finds the word set);
// whoever makes such a change calls wakeBody, which claims the wake-up by
// compare-and-swap, so one waker signals however many race.
const (
	bodyRunning int32 = iota // not blocked; holds its token
	bodyWaiting              // blocked in post: the engine is working for it, so it keeps its token
	bodyParked               // blocked in a Context wait: it has given its token up
	bodyWoken                // a waker has claimed the wake-up
)

// newParticipant builds a participant for the server's pool: what it keeps
// for life, and nothing a run sets.
func newParticipant(s *Server) *participant {
	p := &participant{
		route:  sessionRoute{inbox: newMailbox(s.clk)},
		events: make(chan request),
		reply:  make(chan error, 1),
		wake:   make(chan struct{}, 1),
	}
	p.parkCond = sync.NewCond(&p.smu)
	p.hooks = protocol.Hooks{
		Send:         p.hookSend,
		Suspend:      p.hookSuspend,
		AbortNested:  p.hookAbortNested,
		StartHandler: p.hookStartHandler,
		Log:          s.record,
	}
	p.engine = protocol.NewEngine(0, p.hooks)
	p.Reset()
	return p
}

// Reset empties p for the pool. What it keeps for life stays: the engine
// (Engine.Reset rebinds it in join) and its hooks, the mailbox (emptied by
// detach), the channels, and the capacity of estack and outcomes. Everything
// a run set is zeroed, a field added later included.
func (p *participant) Reset() {
	select {
	case <-p.reply: // the engine's answer to a request the body abandoned
	default:
	}
	clear(p.estack[:cap(p.estack)])
	clear(p.outcomes[:cap(p.outcomes)])
	*p = participant{
		route:        sessionRoute{inbox: p.route.inbox},
		engine:       p.engine,
		hooks:        p.hooks,
		events:       p.events,
		reply:        p.reply,
		estack:       p.estack[:0],
		parkCond:     p.parkCond,
		suspendLevel: levelNone,
		parkedLevel:  levelNotParked,
		outcomes:     p.outcomes[:0],
		wake:         p.wake,
	}
}

// join takes a participant from the server's pool and binds it to the run as
// obj: engine rebound, session route registered on obj's long-lived
// dispatcher under the session's root action tag (allocated before any
// participant exists, see runAttempt), top-level action entered, membership
// started.
func (r *run) join(obj ident.ObjectID) (*participant, error) {
	d, err := r.sys.dispatcherFor(obj)
	if err != nil {
		return nil, err
	}
	p := r.sys.participants.Get().(*participant)
	p.run, p.obj = r, obj
	p.engine.Reset(obj, p.hooks)
	p.route.attach(d, r.top.id)
	if !r.preExpelled[obj] {
		// The top-level action is entered here, on the creating goroutine,
		// while nothing else can reach the engine, so entering costs the
		// body no hand-off.
		if err := p.enterFrame(&r.top); err != nil {
			p.detach()
			r.sys.recycle(p)
			return nil, err
		}
	}
	p.startMembership()
	return p, nil
}

// recycle returns p to the pool. The caller has stopped or detached it; p
// goes back only if nothing else can still touch it (see pending), and not
// from a membership session, whose detector may have a heartbeat in flight
// past Stop.
func (s *Server) recycle(p *participant) {
	if p.pending.Load() != 0 || p.detector != nil {
		return
	}
	p.Reset()
	s.participants.Put(p)
}

// start hands the engine loop to a pool worker. runAttempt calls it right
// behind handing over the participant's body: the body's first request is
// then already waiting when its engine first looks, and loop serves a waiting
// request before the next delivery, so whether a body that raises at once is
// still heard does not hang on how soon the scheduler gets round to it.
// Deliveries that arrive earlier wait in the mailbox. (The exception is the
// run's last member: Go runs the goroutine readied last first, whether it is
// a new one or a parked worker handed a task, so that engine is already
// listening while its body waits at the back of the run queue, and a peer's
// Exception usually reaches it first. See docs/SERVER.md.) The loop returns
// on opStop and its worker parks again: a pooled participant owns no
// goroutine.
func (p *participant) start() {
	p.run.sys.spawn(task{op: taskLoop, p: p})
}

// burst caps the deliveries one engine-loop wakeup drains before body
// requests get another turn.
const burst = 32

// loop is the engine loop, run by a worker until opStop: it serialises
// protocol messages and body requests onto the engine state machine.
// Deliveries arrive in the session's mailbox (fed by the object's
// dispatcher), and each wakeup drains a bounded burst, serving a request that
// is already waiting before each delivery, so requests never starve behind a
// message storm (nor deliveries behind requests: one delivery follows each).
// The mailbox re-arms its ready signal while non-empty, so stopping at the
// burst cap never strands queued messages.
func (p *participant) loop() {
	inbox := p.route.inbox
	for {
		select {
		case <-inbox.ready:
			for n := 0; n < burst; n++ {
				select {
				case r := <-p.events:
					if !p.serve(r) {
						return
					}
				default:
				}
				d, ok := inbox.take()
				if !ok {
					break
				}
				p.handleDelivery(d)
				inbox.clk.Release(vclock.Mailbox) // taken by put
			}
		case r := <-p.events:
			if !p.serve(r) {
				return
			}
		}
	}
}

// serve carries out one body request and answers it. It reports false for
// opStop, which gets no answer: the loop returns, and the stopper's send
// completing tells it so.
func (p *participant) serve(r request) bool {
	var err error
	switch r.op {
	case opStop:
		return false
	case opEnter:
		// Refused when a resolution already covers the current level (the
		// body is about to be terminated anyway).
		if p.suspension() <= len(p.estack)-1 {
			err = ErrSuspendedEntry
		} else {
			err = p.enterFrame(r.inst)
		}
	case opLeave:
		err = p.leaveFrame(r.level, r.inst)
	case opRaise:
		_, err = p.engine.RaiseLocal(r.exc) // a raise a resolution subsumes is fine
	}
	p.reply <- err
	return true
}

// handleDelivery feeds one transport delivery to the engine, rebuilding the
// protocol message from the envelope's kind and sender and the body carried
// by value. Wire decoding (when enabled) happens at the transport boundary,
// so deliveries always carry native bodies. Membership traffic shares the
// stream and is teed off before the engine sees it.
//
//caa:noalloc
func (p *participant) handleDelivery(d group.Delivery) {
	switch d.Kind {
	case expelNote:
		p.engine.ExpelMember(d.From, ExcParticipantFailure)
	case group.KindHeartbeat:
		if p.detector != nil {
			p.detector.Observe(d.From)
		}
	case membership.KindView, membership.KindRejoinRequest, membership.KindWelcome,
		membership.KindLeaseRequest, membership.KindLeaseGrant:
		if p.monitor != nil {
			p.monitor.DeliverMessage(d.From, d.Kind, d.Payload)
		}
	case protocol.KindException, protocol.KindHaveNested, protocol.KindNestedCompleted,
		protocol.KindAck, protocol.KindCommit:
		p.engine.HandleMessage(protocol.MsgOf(d.Kind, d.From, d.Body))
	}
}

// stop ends the engine loop, then detaches the participant. The send is
// unbuffered, so once it completes the loop has taken the stop and steps the
// engine no more.
func (p *participant) stop() {
	p.events <- request{op: opStop}
	p.detach()
}

// detach stops the membership machinery and the session route, in that order
// (the monitor's final callbacks must find the engine stopped, and the
// detector must stop beating before its route detaches). Only the route is
// unregistered: the object's shared transport stays up for other sessions.
func (p *participant) detach() {
	if p.monitor != nil {
		p.monitor.Stop()
	}
	if p.detector != nil {
		p.detector.Stop()
	}
	p.route.detach()
}

// post hands r to the engine goroutine and waits for the answer. r.level is
// the body's current action depth: if a suspension targeting that level (or
// an outer one) arrives while the engine is busy (typically waiting for this
// very body to park before running abortion handlers, possibly serving r),
// post abandons the request and unwinds the body instead of deadlocking.
// Every request is suspension-aware and degrades to a no-op if it is served
// after that; liftSuspension sees to it that it has been before the
// suspension goes. The body keeps its clock token throughout: the engine
// works on its behalf.
func (p *participant) post(r request) error {
	events, reply := p.events, (chan error)(nil) // first the one, then the other
	for {
		p.state.Store(bodyWaiting)
		if susp := p.suspension(); susp <= r.level {
			p.resume(bodyWaiting, false)
			p.abandoned = reply != nil // the engine has r and will answer it
			panic(sentinel{level: susp})
		}
		select {
		case <-p.wake:
			p.state.Store(bodyRunning)
		case events <- r:
			p.resume(bodyWaiting, false)
			events, reply = nil, p.reply
		case err := <-reply:
			p.resume(bodyWaiting, false)
			return err
		}
	}
}

// resume ends a block that p.wake did not end: what the body stored mode for
// held already, or another channel fired. released says the body had given
// its clock token up; it returns holding exactly one (a waker that claimed the
// word meanwhile has signalled and, for a parked body, holds one too).
func (p *participant) resume(mode int32, released bool) {
	clk := p.run.sys.clk
	if p.state.CompareAndSwap(mode, bodyRunning) {
		if released {
			clk.Hold(vclock.Body)
		}
		return
	}
	<-p.wake
	p.state.Store(bodyRunning)
	if mode == bodyParked && !released {
		clk.Release(vclock.Body)
	}
}

// wakeBody tells a blocked body that something it may be waiting for has
// changed. The caller is itself counted on the clock (an engine step, a
// handler, a body, a timer callback). No-op when the body is not blocked or
// another waker got there first.
func (p *participant) wakeBody() {
	for s := p.state.Load(); s == bodyWaiting || s == bodyParked; s = p.state.Load() {
		if p.state.CompareAndSwap(s, bodyWoken) {
			if s == bodyParked {
				p.run.sys.clk.Hold(vclock.Body)
			}
			p.wake <- struct{}{}
			return
		}
	}
}

// --- engine hooks (engine goroutine) ---

// hookSend sends one protocol message as its body, by value: the envelope
// carries its kind and sender. The directory's codec (wire encoding, when
// enabled) applies at the transport boundary; encode failures surface as
// send errors. The send carries the session's root action tag so the
// receiving dispatcher can route the frame without decoding it.
//
//caa:noalloc
func (p *participant) hookSend(to ident.ObjectID, m protocol.Msg) {
	if err := p.route.send(to, m.Kind, m.Body()); err != nil {
		//protolint:allow noalloc send-failure path: the error's text, never taken while the object is bound
		p.run.sys.log.Record(trace.Event{Kind: trace.EvNote, Object: p.obj,
			Label: "send-error", Detail: err.Error()})
	}
}

func (p *participant) hookSuspend(action ident.ActionID) {
	level := p.levelOf(action)
	if level < 0 {
		return
	}
	p.setSuspendLevel(level)
	p.estack[level].withdrawExit(p.obj)
}

// hookAbortNested aborts every action nested within downTo: it waits for the
// body to park at the resolution level, then runs abortion handlers
// innermost-first and aborts their transactions. It returns the exception
// signalled by the abortion handler of the action directly nested in downTo.
func (p *participant) hookAbortNested(downTo ident.ActionID) string {
	target := p.levelOf(downTo)
	if target < 0 {
		return ""
	}
	p.waitParked(target)

	signal := ""
	for idx := len(p.estack) - 1; idx > target; idx-- {
		inst := p.estack[idx]
		sig := ""
		if h := inst.spec.Abortion[p.obj]; h != nil {
			sig = h(&RecoveryContext{Object: p.obj, Action: inst.id, View: &p.estack[idx-1].view})
		}
		inst.abortTxn()
		if idx == target+1 {
			// Only the exception signalled by the action directly nested in
			// the resolution level may be raised there (§4.1).
			signal = sig
		}
	}
	p.estack = p.estack[:target+1]
	return signal
}

// hookStartHandler hands the resolved exception handler for this participant
// to a pool worker, so the engine keeps serving messages (e.g. ACKs owed to
// late raisers) while it runs. The handler counts as pending on p until it
// has delivered its outcome.
func (p *participant) hookStartHandler(action ident.ActionID, exc string) {
	inst := p.run.instanceByID(action)
	if inst == nil {
		return
	}
	p.run.sys.clk.Hold(vclock.Handler)
	p.pending.Add(1)
	p.run.sys.spawn(task{op: taskHandler, p: p, inst: inst, exc: exc})
}

// runHandler runs p's handler for the resolved exc in inst.
//
//caa:noalloc
func (p *participant) runHandler(inst *instance, exc string) {
	clk := p.run.sys.clk
	out := handlerOutcome{action: inst.id, resolved: exc}
	hs := inst.spec.Handlers[p.obj]
	h, ok := hs.Lookup(exc)
	if !ok {
		// Validation guarantees coverage; a miss means the resolved
		// exception was not declared. Escalate as a failure signal.
		out.signal = inst.spec.Tree.Root()
		//protolint:allow noalloc failure path: an undeclared resolved exception, which validation rules out
		out.err = fmt.Errorf("%s: %w for resolved %q", inst.spec.Name, ErrIncompleteHandlers, exc)
	} else {
		out.signal, out.err = h(&inst.member(p.obj).rctx, exception.E(exc))
	}
	if out.signal != "" {
		// Failure exception signalled to the containing action: the
		// associated transaction cannot be trusted to be consistent, abort
		// it ("the transaction ... could be aborted transparently once an
		// exception is propagated to the containing action").
		inst.abortTxn()
	}
	p.deliverOutcome(out)
	clk.Release(vclock.Handler)
	p.pending.Add(-1) // the last touch: p may be recycled from here on
}

// --- suspension / parking (shared state) ---

func (p *participant) setSuspendLevel(level int) {
	p.smu.Lock()
	if level >= p.suspendLevel {
		p.smu.Unlock()
		return
	}
	p.suspendLevel = level
	p.parkCond.Broadcast()
	p.smu.Unlock()
	p.wakeBody()
}

// suspension returns the current suspension level.
func (p *participant) suspension() int {
	p.smu.Lock()
	defer p.smu.Unlock()
	return p.suspendLevel
}

// park marks the body parked at the given level (resolution in progress
// there), which is what waitParked waits for, or with levelNotParked no
// longer parked.
func (p *participant) park(level int) {
	p.smu.Lock()
	defer p.smu.Unlock()
	p.parkedLevel = level
	p.parkCond.Broadcast()
}

// waitParked blocks (engine goroutine) until the body parks at level, the
// body finishes, or the run is cancelled.
func (p *participant) waitParked(level int) {
	p.smu.Lock()
	defer p.smu.Unlock()
	for p.parkedLevel != level && !p.bodyDone && p.suspendLevel != levelCancelled {
		p.parkCond.Wait()
	}
}

// markBodyDone records that the body goroutine returned, releasing any
// engine-side waits on parking.
func (p *participant) markBodyDone() {
	p.smu.Lock()
	defer p.smu.Unlock()
	p.bodyDone = true
	p.parkCond.Broadcast()
}

// deliverOutcome hands the body the outcome of the handler for out.action.
func (p *participant) deliverOutcome(out handlerOutcome) {
	p.smu.Lock()
	p.outcomes = append(p.outcomes, out)
	p.smu.Unlock()
	p.wakeBody()
}

// takeOutcome removes and returns the (first) handler outcome delivered for
// action, if one has been.
func (p *participant) takeOutcome(action ident.ActionID) (handlerOutcome, bool) {
	p.smu.Lock()
	defer p.smu.Unlock()
	for i, o := range p.outcomes {
		if o.action == action {
			p.outcomes = append(p.outcomes[:i], p.outcomes[i+1:]...)
			return o, true
		}
	}
	return handlerOutcome{}, false
}

// levelOf returns the index of the action in the engine-side stack (engine
// goroutine only).
func (p *participant) levelOf(action ident.ActionID) int {
	for i, inst := range p.estack {
		if inst.id == action {
			return i
		}
	}
	return -1
}

// --- requests a body posts to its engine goroutine ---

// enterInstance asks the engine to push inst's frame. bodyLevel is the
// body's depth before entering.
func (p *participant) enterInstance(bodyLevel int, inst *instance) error {
	return p.post(request{op: opEnter, level: bodyLevel, inst: inst})
}

// leaveInstance asks the engine to pop inst's frame after the completion
// barrier. bodyLevel is the level of the action being left.
func (p *participant) leaveInstance(bodyLevel int, inst *instance) error {
	return p.post(request{op: opLeave, level: bodyLevel, inst: inst})
}

// raise asks the engine to raise an exception in the active action.
// bodyLevel is the body's current depth.
func (p *participant) raise(bodyLevel int, exc string) {
	_ = p.post(request{op: opRaise, level: bodyLevel, exc: exc})
}

// enterFrame pushes inst's frame onto the engine (engine goroutine, or the
// creating goroutine before the engine goroutine exists).
func (p *participant) enterFrame(inst *instance) error {
	frame := protocol.Frame{
		Action:  inst.id,
		Path:    inst.path,
		Members: inst.members,
		Tree:    inst.spec.Tree,
	}
	if inst.spec.Policy == WaitForNestedActions {
		p.engine.SetWaitForNested(true)
	}
	// estack must be extended BEFORE EnterAction: the engine replays
	// messages that arrived while this object was belated, and the
	// hooks they trigger (Suspend, AbortNested) resolve action levels
	// through estack.
	p.estack = append(p.estack, inst)
	if err := p.engine.EnterAction(frame); err != nil {
		p.estack = p.estack[:len(p.estack)-1]
		return err
	}
	return nil
}

// leaveFrame pops inst's frame (engine goroutine). bodyLevel is the level of
// the action being left.
func (p *participant) leaveFrame(bodyLevel int, inst *instance) error {
	if p.suspension() <= bodyLevel {
		// A resolution is (or was) in progress at or outside this level;
		// the frame must stay for the protocol. The body unwinds instead.
		return ErrSuspendedEntry
	}
	if len(p.estack) == 0 || p.estack[len(p.estack)-1] != inst {
		return fmt.Errorf("%w: %s not active", protocol.ErrNotInAction, inst.id)
	}
	if err := p.engine.LeaveAction(inst.id); err != nil {
		return err
	}
	p.estack = p.estack[:len(p.estack)-1]
	return nil
}
