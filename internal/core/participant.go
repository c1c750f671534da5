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

// participant is one participating object: a protocol engine and a body, run
// by a server worker (worker.go). The engine has no goroutine of its own:
// under emu the body steps it for its own enters, leaves and raises, and its
// mailbox's drain, run by a worker only while deliveries wait, for each
// delivery. Otherwise body and drain share only suspension state.
// It attaches to its object's dispatcher through a sessionRoute: everything it
// sends — protocol messages and membership traffic alike — carries the
// session's root action tag, and everything so tagged arrives in its inbox.
//
// Participants come from the server's pool: newParticipant builds what one
// keeps for life (engine and hooks, mailbox, wake channel), run.join binds it
// to one run and Server.recycle returns it.
type participant struct {
	run    *run
	obj    ident.ObjectID
	route  sessionRoute
	engine *protocol.Engine
	hooks  protocol.Hooks // bound to this participant once, by newParticipant

	emu    sync.Mutex        // guards engine, estack, detector and monitor
	result ParticipantResult // written by the body goroutine, read once it has returned

	// Membership monitoring (nil without Options.Membership). The detector
	// runs in fed mode — this participant's drain owns the session inbox and
	// tees heartbeats in — and the monitor's view changes drive run-level
	// expulsion. Written under emu: a peer's first heartbeat may start a
	// drain before join has returned.
	detector *group.Detector
	monitor  *membership.Monitor

	// estack mirrors the engine's action stack with run instances. Guarded by
	// emu.
	estack []*instance

	// events is p's share of its run's record: every event its engine, body
	// and sends logged, stamped from the run's sequence. Its recordCap-event
	// backing array is allocated once, by newParticipant, and kept across
	// runs; lost counts the events that found it full. Guarded by emu.
	events []trace.Event
	lost   int

	// pending counts what may still touch p once its body has returned and
	// its mailbox has closed: handler tasks and Context.Sleep deadlines. recycle
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

	state atomic.Int32  // whether the body is parked
	wake  chan struct{} // 1-buffered: the waker that claimed state signals here
}

// Body states. A body about to park stores bodyParked, then re-checks what it
// waits for (in that order: a change made after the check finds the word set);
// whoever makes such a change calls wakeBody, which claims the wake-up by
// compare-and-swap, so one waker signals however many race.
const (
	bodyRunning int32 = iota // not parked; holds its token
	bodyParked               // blocked in a Context wait: it has given its token up
	bodyWoken                // a waker has claimed the wake-up
)

// recordCap is how many events one participant keeps of one run. The most
// one member of any benchmark workload records in one run is 43 (storm, all
// eight raising); past the cap an event is counted in lost, not kept.
const recordCap = 64

// newParticipant builds a participant for the server's pool: what it keeps
// for life, and nothing a run sets.
func newParticipant(s *Server) *participant {
	p := &participant{
		wake:   make(chan struct{}, 1),
		events: make([]trace.Event, 0, recordCap),
	}
	p.route.inbox = newMailbox(s, p)
	p.parkCond = sync.NewCond(&p.smu)
	p.hooks = protocol.Hooks{
		Send:         p.hookSend,
		Suspend:      p.hookSuspend,
		AbortNested:  p.hookAbortNested,
		StartHandler: p.hookStartHandler,
		Log:          p.hookLog,
	}
	p.engine = protocol.NewEngine(0, p.hooks)
	p.Reset()
	return p
}

// Reset empties p for the pool. What it keeps for life stays: the engine
// (Engine.Reset rebinds it in join) and its hooks, the mailbox (reopened by
// detach), the wake channel, and the capacity of estack, events and outcomes.
// Everything a run set is zeroed, a field added later included.
func (p *participant) Reset() {
	clear(p.estack[:cap(p.estack)])
	clear(p.events) // only what the run recorded: the rest is zero
	clear(p.outcomes[:cap(p.outcomes)])
	*p = participant{
		route:        sessionRoute{inbox: p.route.inbox},
		engine:       p.engine,
		hooks:        p.hooks,
		estack:       p.estack[:0],
		events:       p.events[:0],
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
// started. From the route's registration on, a delivery may start a drain.
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
		// the way a body enters a nested one. Nothing can have suspended a
		// participant fresh from the pool, so this never unwinds.
		if err := p.enterInstance(-1, &r.top); err != nil {
			p.stop()
			r.sys.recycle(p)
			return nil, err
		}
	}
	p.startMembership()
	return p, nil
}

// recycle returns p to the pool. The caller has stopped it; p
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

// drain steps the engine with each delivery in the session's mailbox (fed by
// the object's dispatcher), taking the engine lock once per delivery, so the
// body gets its turn between deliveries. The put that armed the mailbox
// handed it to a pool worker; it returns when take finds the mailbox empty,
// and the next put hands out the next drain.
func (p *participant) drain() {
	inbox := p.route.inbox
	for d, ok := inbox.take(); ok; d, ok = inbox.take() {
		p.emu.Lock()
		p.handleDelivery(d)
		p.emu.Unlock()
	}
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

// stop closes the mailbox, which returns once no drain is running, so the
// engine is stepped no more, then detaches the participant.
func (p *participant) stop() {
	p.route.inbox.close()
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

// resume ends a park that p.wake did not end: what the body parked for held
// already, or its channel fired. released says the body had given its clock
// token up; it returns holding exactly one (a waker that claimed the word
// meanwhile has signalled and holds one too).
func (p *participant) resume(released bool) {
	clk := p.run.sys.clk
	if p.state.CompareAndSwap(bodyParked, bodyRunning) {
		if released {
			clk.Hold(vclock.Body)
		}
		return
	}
	<-p.wake
	p.state.Store(bodyRunning)
	if !released {
		clk.Release(vclock.Body)
	}
}

// wakeBody tells a parked body that something it may be waiting for has
// changed. The caller is itself counted on the clock (an engine step, a
// handler, a body, a timer callback). No-op when the body is not parked or
// another waker got there first.
func (p *participant) wakeBody() {
	if p.state.CompareAndSwap(bodyParked, bodyWoken) {
		p.run.sys.clk.Hold(vclock.Body)
		p.wake <- struct{}{}
	}
}

// --- engine hooks (under emu) ---

// hookSend sends one protocol message as its body, by value: the envelope
// carries its kind and sender. The directory's codec (wire encoding, when
// enabled) applies at the transport boundary; encode failures surface as
// send errors. The send carries the session's root action tag so the
// receiving dispatcher can route the frame without decoding it.
//
//caa:noalloc
func (p *participant) hookSend(to ident.ObjectID, m protocol.Msg) {
	if err := p.route.send(to, m.Kind, m.Body()); err != nil {
		p.hookLog(trace.Event{Kind: trace.EvNote, Object: p.obj,
			Label: "send-error", Detail: err.Error()})
	}
}

// hookLog records one event of p's run: the server's log counts it (and
// keeps it, when the log is Options.Trace), and p's share of the run's record
// keeps it, stamped from the run's sequence.
//
//caa:noalloc
func (p *participant) hookLog(ev trace.Event) {
	ev.Seq = int(p.run.seq.Add(1))
	p.run.sys.log.Record(ev)
	if len(p.events) == cap(p.events) {
		p.lost++
		return
	}
	p.events = append(p.events, ev)
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
//
// The wait gives the engine lock up, for the body may be blocked on it. That
// body finds itself suspended (the engine suspends downTo before it aborts
// what is nested in it) and unwinds instead of stepping. The wait is never
// the body's own: AbortNested is reached only from a drain.
func (p *participant) hookAbortNested(downTo ident.ActionID) string {
	target := p.levelOf(downTo)
	if target < 0 {
		return ""
	}
	p.emu.Unlock()
	p.waitParked(target)
	p.emu.Lock()

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

// waitParked blocks (a drain, not holding emu) until the body parks at
// level, the body finishes, or the run is cancelled.
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

// levelOf returns the index of the action in the engine-side stack (under
// emu).
func (p *participant) levelOf(action ident.ActionID) int {
	for i, inst := range p.estack {
		if inst.id == action {
			return i
		}
	}
	return -1
}

// --- a body's steps of its own engine ---

// lockFor takes the engine lock for a body at level: its depth, or the level
// of the action it leaves. A suspension covering level unwinds the body into
// it instead, without stepping: the resolution owns the frames from there.
func (p *participant) lockFor(level int) {
	p.emu.Lock()
	if susp := p.suspension(); susp <= level {
		p.emu.Unlock()
		panic(sentinel{level: susp})
	}
}

// enterInstance pushes inst's frame. bodyLevel is the body's depth before
// entering.
func (p *participant) enterInstance(bodyLevel int, inst *instance) error {
	p.lockFor(bodyLevel)
	defer p.emu.Unlock()
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
	// messages that arrived while this object was belated, and the Suspend
	// hook they may trigger resolves action levels through estack.
	p.estack = append(p.estack, inst)
	if err := p.engine.EnterAction(frame); err != nil {
		p.estack = p.estack[:len(p.estack)-1]
		return err
	}
	return nil
}

// leaveInstance pops inst's frame after the completion barrier. bodyLevel is
// the level of the action being left.
func (p *participant) leaveInstance(bodyLevel int, inst *instance) error {
	p.lockFor(bodyLevel)
	defer p.emu.Unlock()
	if len(p.estack) == 0 || p.estack[len(p.estack)-1] != inst {
		return fmt.Errorf("%w: %s not active", protocol.ErrNotInAction, inst.id)
	}
	if err := p.engine.LeaveAction(inst.id); err != nil {
		return err
	}
	p.estack = p.estack[:len(p.estack)-1]
	return nil
}

// raise raises an exception in the active action. bodyLevel is the body's
// current depth.
func (p *participant) raise(bodyLevel int, exc string) {
	p.lockFor(bodyLevel)
	defer p.emu.Unlock()
	_, _ = p.engine.RaiseLocal(exc) // a raise a resolution subsumes is fine
}
