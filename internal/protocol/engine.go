package protocol

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/exception"
	"repro/internal/ident"
	"repro/internal/trace"
)

// Hooks are the effects an Engine produces. All hooks are invoked
// synchronously from whatever goroutine drives the engine; implementations
// must not call back into the engine.
type Hooks struct {
	// Send transmits a protocol message to one peer.
	Send func(to ident.ObjectID, m Msg)
	// Suspend tells the participant's body to stop normal work in the given
	// action ("it is in practice impossible to interrupt all participating
	// objects immediately" — this is the asynchronous interruption request).
	Suspend func(action ident.ActionID)
	// AbortNested aborts every action nested within downTo, innermost first,
	// by running abortion handlers, and returns the exception signalled by
	// the abortion handlers of the action directly nested in downTo ("" for
	// none). It must block until abortion completes.
	AbortNested func(downTo ident.ActionID) string
	// StartHandler begins the handler for the resolved exception in the
	// given action.
	StartHandler func(action ident.ActionID, exc string)
	// Log records a trace event; may be nil.
	Log func(ev trace.Event)
}

// Frame is one entry of the SA stack: an entered action with its exception
// context.
type Frame struct {
	Action  ident.ActionID
	Path    []ident.ActionID // ancestry, outermost first, ending in Action
	Members []ident.ObjectID // all declared participants, including self
	Tree    *exception.Tree
}

// Engine errors.
var (
	ErrNotInAction   = errors.New("protocol: object is not in that action")
	ErrAlreadyInside = errors.New("protocol: action already entered")
)

// Engine is the per-object resolution state machine. It is not safe for
// concurrent use; one goroutine must own it.
type Engine struct {
	self  ident.ObjectID
	hooks Hooks

	stack []Frame // SA_i

	// Resolution state. resAction is the action the current resolution runs
	// at (0 = none). The lists carry the paper's names. le, lo and the ACK
	// ledgers are cleared in place between resolutions (never reallocated),
	// so in steady state a commit cycle performs no map or slice allocation.
	state      State
	resAction  ident.ActionID
	le         []Raised                  // LE_i
	lo         map[ident.ObjectID]bool   // LO_i: objects owing us NestedCompleted
	ackWanted  map[ident.ObjectID]int    // how many ACKs each peer owes us
	ackGot     map[ident.ObjectID]int    // LP_i: ACKs received per peer
	stashed    bool                      // Commit received before reaching R
	stashedExc string                    // the stashed Commit's resolution
	committed  map[ident.ActionID]string // resolutions already committed

	// pending holds messages for actions not yet entered (belated arrival).
	pending []Msg

	// waitPolicy selects Figure 1(a): instead of aborting nested actions on
	// an exception in a containing action, defer the message until the
	// nested actions complete naturally. deferred holds those messages.
	waitPolicy bool
	deferred   []Msg

	// chooserGroup is the number of objects responsible for resolution (the
	// §4.4 fault-tolerance extension: "the algorithm can be easily extended
	// to the use of a group of objects that are responsible for performing
	// resolution and producing the commit messages"). Default 1. The k
	// biggest raisers all resolve and multicast Commit; duplicates are
	// suppressed by the committed-resolution record.
	chooserGroup int

	// suspendedAt remembers the action for which Suspend was already issued,
	// to avoid duplicate notifications.
	suspendedAt ident.ActionID

	// expelled records members removed by a membership view change. Nil until
	// the first expulsion, so runs without a membership monitor take none of
	// the degraded-mode branches and stay trace-identical.
	expelled map[ident.ObjectID]bool

	// Reusable scratch buffers for the hot paths: pending/deferred replay,
	// the chooser's resolve input and the distinct-raisers computation all
	// run per commit, so they must not allocate in steady state.
	replayScratch []Msg
	nameScratch   []string
	raiserScratch []ident.ObjectID
	detailScratch []byte // the chooser's trace detail (leDetail)
	//protolint:allow resetcheck the capacity watermark must survive Reset so a pooled engine keeps its pre-sized ledgers
	sizedFor int // widest membership the lists are pre-sized for
}

// NewEngine creates an engine for one participating object.
func NewEngine(self ident.ObjectID, hooks Hooks) *Engine {
	return &Engine{
		self:      self,
		hooks:     hooks,
		state:     StateNormal,
		lo:        make(map[ident.ObjectID]bool),
		ackWanted: make(map[ident.ObjectID]int),
		ackGot:    make(map[ident.ObjectID]int),
		committed: make(map[ident.ActionID]string),
	}
}

// Self returns the owning object's identifier.
func (e *Engine) Self() ident.ObjectID { return e.self }

// SetChooserGroup makes the k biggest raisers all act as resolution choosers
// (k >= 1), the paper's fault-tolerance extension. Every member of an action
// must use the same k.
func (e *Engine) SetChooserGroup(k int) {
	if k < 1 {
		k = 1
	}
	e.chooserGroup = k
}

// SetWaitForNested switches the engine to the paper's Figure 1(a) strategy:
// when an exception is raised in a containing action while this object is
// inside a nested action, the engine waits for the nested action to complete
// instead of aborting it. The paper argues (and experiment E7 shows) that
// this risks waiting forever on belated participants; the default is the
// abortion strategy of Figure 1(b).
func (e *Engine) SetWaitForNested(wait bool) { e.waitPolicy = wait }

// State returns the current protocol state.
func (e *Engine) State() State { return e.state }

// ResolutionAction returns the action the current resolution runs at (0 when
// no resolution is in progress).
func (e *Engine) ResolutionAction() ident.ActionID { return e.resAction }

// LE returns a copy of the LE list.
func (e *Engine) LE() []Raised {
	out := make([]Raised, len(e.le))
	copy(out, e.le)
	return out
}

// Depth returns the number of entered actions.
func (e *Engine) Depth() int { return len(e.stack) }

// Active returns the innermost entered action (0 if none).
func (e *Engine) Active() ident.ActionID {
	if len(e.stack) == 0 {
		return 0
	}
	return e.stack[len(e.stack)-1].Action
}

// CommittedAt returns the resolved exception committed at the given action,
// if any.
func (e *Engine) CommittedAt(a ident.ActionID) (string, bool) {
	exc, ok := e.committed[a]
	return exc, ok
}

// EnterAction pushes an action frame ("<A> -> SA_i") and processes any
// messages that arrived for it while this object was belated ("process
// messages having arrived").
func (e *Engine) EnterAction(f Frame) error {
	if e.frameIndex(f.Action) >= 0 {
		return fmt.Errorf("%w: %s", ErrAlreadyInside, f.Action)
	}
	e.stack = append(e.stack, f)
	e.presizeFor(len(f.Members))
	e.log(trace.Event{Kind: trace.EvEnter, Object: e.self, Action: f.Action})
	// Replay pending messages addressed to the newly entered action. The
	// matches are copied to a scratch buffer before replay: HandleMessage may
	// park further messages, which appends to e.pending.
	if len(e.pending) > 0 {
		replay := e.takeReplay()
		keep := e.pending[:0]
		for _, m := range e.pending {
			if m.Action == f.Action {
				replay = append(replay, m)
			} else {
				keep = append(keep, m)
			}
		}
		e.pending = keep
		for _, m := range replay {
			e.HandleMessage(m)
		}
		e.putReplay(replay)
	}
	return nil
}

// presizeFor sizes the resolution lists for a membership of n objects before
// first use: clearResolution keeps map buckets and slice capacity across
// commits, so paying the growth once here makes every later resolution
// allocation-free.
func (e *Engine) presizeFor(n int) {
	if n <= e.sizedFor {
		return
	}
	e.sizedFor = n
	if len(e.lo) == 0 {
		e.lo = make(map[ident.ObjectID]bool, n)
	}
	if len(e.ackWanted) == 0 {
		e.ackWanted = make(map[ident.ObjectID]int, n)
	}
	if len(e.ackGot) == 0 {
		e.ackGot = make(map[ident.ObjectID]int, n)
	}
	// LE holds up to one entry per raiser plus abortion signals; 2n covers
	// every §4.4 case without regrowth.
	e.le = slices.Grow(e.le, 2*n)
	e.nameScratch = slices.Grow(e.nameScratch, cap(e.le))
	e.raiserScratch = slices.Grow(e.raiserScratch, n)
}

// takeReplay borrows the replay scratch buffer; a reentrant replay (a replayed
// message triggering another replay) finds it nil and falls back to a fresh
// allocation.
//
//caa:noalloc
func (e *Engine) takeReplay() []Msg {
	s := e.replayScratch
	e.replayScratch = nil
	return s[:0]
}

//caa:noalloc
func (e *Engine) putReplay(s []Msg) { e.replayScratch = s }

// LeaveAction pops the innermost action ("delete last element in SA_i"). The
// caller coordinates the synchronous leave barrier.
func (e *Engine) LeaveAction(a ident.ActionID) error {
	if len(e.stack) == 0 || e.stack[len(e.stack)-1].Action != a {
		return fmt.Errorf("%w: %s is not the active action", ErrNotInAction, a)
	}
	e.stack = e.stack[:len(e.stack)-1]
	if e.resAction == a {
		e.clearResolution()
	}
	if e.suspendedAt == a {
		e.suspendedAt = 0
	}
	e.log(trace.Event{Kind: trace.EvLeave, Object: e.self, Action: a})
	// Under the wait-for-nested policy, messages deferred for a containing
	// action become processable once that action is active again. As in
	// EnterAction, matches move to scratch first: a replayed message may
	// defer further messages, which appends to e.deferred.
	if e.waitPolicy && len(e.deferred) > 0 {
		active := e.Active()
		replay := e.takeReplay()
		keep := e.deferred[:0]
		for _, m := range e.deferred {
			if m.Action == active {
				replay = append(replay, m)
			} else {
				keep = append(keep, m)
			}
		}
		e.deferred = keep
		for _, m := range replay {
			e.HandleMessage(m)
		}
		e.putReplay(replay)
	}
	return nil
}

// RaiseLocal raises an exception in the active action. It returns true when
// the raise was accepted; a raise is dropped (returning false) when the
// object is already in an exceptional/suspended state for a resolution
// covering the active action — the detected error will be subsumed by the
// resolution already under way.
//
//caa:noalloc
func (e *Engine) RaiseLocal(exc string) (bool, error) {
	if len(e.stack) == 0 {
		return false, ErrNotInAction
	}
	top := e.stack[len(e.stack)-1]
	if _, done := e.committed[top.Action]; done {
		return false, nil
	}
	if e.state != StateNormal {
		e.log(trace.Event{Kind: trace.EvNote, Object: e.self, Action: top.Action,
			Label: "raise-dropped", Detail: exc})
		return false, nil
	}
	e.setState(StateExceptional, top.Action)
	e.resAction = top.Action
	e.le = append(e.le, Raised{Action: top.Action, Obj: e.self, Exc: exc})
	e.log(trace.Event{Kind: trace.EvRaise, Object: e.self, Action: top.Action, Label: exc})
	e.multicast(top, Msg{
		Kind:   KindException,
		Action: top.Action,
		Path:   top.Path,
		From:   e.self,
		Exc:    exc,
	}, true /* wantAck */)
	e.suspend(top.Action)
	e.maybeReady()
	return true, nil
}

// ExpelMember removes a member decided failed by the membership service from
// every entered frame, releases whatever the member still owed this object
// (NestedCompleted entries, pending ACKs), and — when failureExc is non-empty
// and the member was inside an entered, uncommitted action — feeds the engine
// a synthesized exception raised on the failed member's behalf at the
// innermost action it shared with us. Every survivor synthesizes the same
// exception locally off the same view change, so no extra protocol messages
// are needed; from there the ordinary machinery runs: participants deeper
// than the failure's action abort their nested actions (the paper's
// Figure 1(b) scenario with a crashed participant), and resolution covers the
// failure exception. Expulsion is idempotent and permanent.
func (e *Engine) ExpelMember(obj ident.ObjectID, failureExc string) {
	if obj == e.self || e.expelled[obj] {
		return
	}
	if e.expelled == nil {
		e.expelled = make(map[ident.ObjectID]bool)
	}
	e.expelled[obj] = true
	e.log(trace.Event{Kind: trace.EvNote, Object: e.self, Label: "member-expelled",
		Detail: obj.String()})

	// Copy-on-write membership filter: Frame.Members may be shared with other
	// engines' frames (the spec hands every participant the same slice).
	deepest := -1
	for i := range e.stack {
		f := &e.stack[i]
		if !slices.Contains(f.Members, obj) {
			continue
		}
		ms := make([]ident.ObjectID, 0, len(f.Members)-1)
		for _, m := range f.Members {
			if m != obj {
				ms = append(ms, m)
			}
		}
		f.Members = ms
		deepest = i
	}
	delete(e.lo, obj)
	delete(e.ackWanted, obj)
	delete(e.ackGot, obj)

	if deepest < 0 {
		// Not a member of anything we entered: nothing to resolve, but the
		// releases above may have unblocked a resolution in progress.
		e.maybeReady()
		return
	}
	if failureExc == "" {
		e.maybeReady()
		return
	}
	f := e.stack[deepest]
	e.HandleMessage(Msg{
		Kind:   KindException,
		Action: f.Action,
		Path:   f.Path,
		From:   obj,
		Exc:    failureExc,
	})
}

// Expelled returns the expelled members, sorted.
func (e *Engine) Expelled() []ident.ObjectID {
	out := make([]ident.ObjectID, 0, len(e.expelled))
	for obj := range e.expelled {
		out = append(out, obj)
	}
	slices.Sort(out)
	return out
}

// HandleMessage processes one incoming protocol message.
//
//caa:noalloc
func (e *Engine) HandleMessage(m Msg) {
	e.log(trace.Event{Kind: trace.EvRecv, Object: e.self, Peer: m.From,
		Action: m.Action, Label: m.Kind, Detail: m.Exc})
	switch m.Kind {
	case KindException, KindHaveNested:
		e.handleExceptionOrHaveNested(m)
	case KindNestedCompleted:
		e.handleNestedCompleted(m)
	case KindAck:
		e.handleAck(m)
	case KindCommit:
		e.handleCommit(m)
	default:
		e.log(trace.Event{Kind: trace.EvNote, Object: e.self, Label: "unknown-kind", Detail: m.Kind})
	}
}

//caa:noalloc
func (e *Engine) handleExceptionOrHaveNested(m Msg) {
	idx := e.frameIndex(m.Action)
	if idx < 0 {
		// Belated: this object is a declared participant of m.Action but has
		// not entered it yet. Park the message; it is either replayed on
		// entry or cleaned up when a containing resolution escalates.
		e.pending = append(e.pending, m)
		return
	}
	frame := e.stack[idx]

	if exc, done := e.committed[m.Action]; done {
		// Resolution at this action already committed; stragglers still get
		// their ACKs so late raisers can reach R and consume the Commit.
		if m.Kind == KindException {
			e.send(m.From, Msg{Kind: KindAck, Action: m.Action, From: e.self})
		}
		e.log(trace.Event{Kind: trace.EvNote, Object: e.self, Action: m.Action,
			Label: "post-commit-message", Detail: exc})
		return
	}

	if idx < len(e.stack)-1 {
		if e.waitPolicy {
			// Figure 1(a): wait for the nested action to complete before
			// taking part in the containing action's resolution.
			e.deferred = append(e.deferred, m)
			if e.hooks.Log != nil {
				e.log(trace.Event{Kind: trace.EvNote, Object: e.self, Action: m.Action,
					Label: "deferred-until-nested-completes", Detail: m.String()})
			}
			return
		}
		// We are inside actions nested within m.Action: escalate. Any
		// resolution in progress at a deeper level is abandoned ("the lower
		// level resolution should be ignored").
		e.suspend(m.Action)
		e.escalateTo(idx, frame)
	} else if e.resAction != m.Action {
		// Resolution (newly) runs at our active action.
		e.resAction = m.Action
	}

	// Clean up parked messages that belong to actions nested within the
	// resolution level ("clean up messages related to nested actions").
	e.dropPendingNestedIn(m.Action)

	// The body is suspended before the ACK leaves: no handler of this
	// resolution can start anywhere while this object's body still counts as
	// having completed the action normally.
	e.suspend(m.Action)
	switch m.Kind {
	case KindException:
		e.le = append(e.le, Raised{Action: m.Action, Obj: m.From, Exc: m.Exc})
		e.send(m.From, Msg{Kind: KindAck, Action: m.Action, From: e.self})
	case KindHaveNested:
		e.lo[m.From] = true
	default:
		panic("protocol: handleExceptionOrHaveNested dispatched on " + m.Kind)
	}

	if e.state == StateNormal {
		e.setState(StateSuspended, m.Action)
	}
	e.maybeReady()
}

// escalateTo aborts every action nested within frame (at stack index idx) and
// performs the HaveNested / NestedCompleted exchange.
//
//caa:noalloc
func (e *Engine) escalateTo(idx int, frame Frame) {
	// Abandon any deeper resolution — but a Commit stashed for THIS action
	// (a degraded-mode Commit that outran the local expulsion, above) must
	// survive the reset or the survivors wait forever for a second one.
	keepStash := e.stashed && e.resAction == frame.Action
	keepExc := e.stashedExc
	e.clearResolution()
	e.resAction = frame.Action
	if keepStash {
		e.stashed = true
		e.stashedExc = keepExc
	}

	e.multicast(frame, Msg{
		Kind:   KindHaveNested,
		Action: frame.Action,
		Path:   frame.Path,
		From:   e.self,
	}, false /* wantAck */)

	// Drop parked messages for the actions being aborted.
	e.dropPendingNestedIn(frame.Action)

	// Abort nested actions innermost-first; abortion handlers of the action
	// directly nested in frame.Action may signal one exception.
	for i := len(e.stack) - 1; i > idx; i-- {
		e.log(trace.Event{Kind: trace.EvAbort, Object: e.self, Action: e.stack[i].Action})
	}
	sig := ""
	if e.hooks.AbortNested != nil {
		sig = e.hooks.AbortNested(frame.Action)
	}
	e.stack = e.stack[:idx+1]

	e.multicast(frame, Msg{
		Kind:   KindNestedCompleted,
		Action: frame.Action,
		Path:   frame.Path,
		From:   e.self,
		Exc:    sig,
	}, true /* wantAck */)

	if sig != "" {
		e.le = append(e.le, Raised{Action: frame.Action, Obj: e.self, Exc: sig})
		e.setState(StateExceptional, frame.Action)
	} else {
		e.setState(StateSuspended, frame.Action)
	}
}

//caa:noalloc
func (e *Engine) handleNestedCompleted(m Msg) {
	if m.Action != e.resAction {
		// Stale or post-commit: still acknowledge so the sender can finish.
		e.send(m.From, Msg{Kind: KindAck, Action: m.Action, From: e.self})
		return
	}
	delete(e.lo, m.From)
	e.send(m.From, Msg{Kind: KindAck, Action: m.Action, From: e.self})
	if m.Exc != "" {
		e.le = append(e.le, Raised{Action: m.Action, Obj: m.From, Exc: m.Exc})
	}
	e.maybeReady()
}

//caa:noalloc
func (e *Engine) handleAck(m Msg) {
	if m.Action != e.resAction {
		return // stale ACK from an abandoned nested resolution
	}
	e.ackGot[m.From]++
	e.maybeReady()
}

//caa:noalloc
func (e *Engine) handleCommit(m Msg) {
	if _, done := e.committed[m.Action]; done {
		return
	}
	if m.Action != e.resAction {
		// A degraded-mode chooser commits without ever multicasting an
		// exception of its own (every survivor synthesizes the failure
		// locally), so its Commit can outrun the view change that installs
		// the resolution here — Commit and exception come from different
		// sources, so no FIFO ordering protects us. Stash the Commit for the
		// entered action; the expulsion event consumes it.
		if e.state == StateNormal && e.resAction == 0 && e.frameIndex(m.Action) >= 0 {
			e.resAction = m.Action
			e.stashed = true
			e.stashedExc = m.Exc
			return
		}
		// Otherwise: a resolution we are not (or no longer) part of at this
		// level; with a correct chooser this cannot happen, but log it.
		e.log(trace.Event{Kind: trace.EvNote, Object: e.self, Action: m.Action,
			Label: "unexpected-commit", Detail: m.Exc})
		return
	}
	switch e.state {
	case StateReady, StateSuspended:
		e.finish(m.Action, m.Exc)
	case StateExceptional, StateNormal:
		// Not yet R (or not yet informed at all): stash until our ACKs arrive
		// ("wait until all exception messages are handled").
		e.stashed = true
		e.stashedExc = m.Exc
	}
}

// maybeReady applies the R-transition rule and, when this object is the
// chooser, resolves and commits. A suspended object normally never reaches R
// (only raisers do; the rest wait for the chooser's Commit) — but when every
// raiser of the current resolution has been expelled, nobody will ever send
// that Commit, so the survivors take the degraded path: they reach R from
// Suspended and the biggest surviving member acts as chooser.
//
//caa:noalloc
func (e *Engine) maybeReady() {
	if e.resAction == 0 {
		return
	}
	switch {
	case e.state == StateExceptional:
	case e.state == StateSuspended && e.degradedMode():
	case e.state == StateReady && e.degradedMode():
		// Already R, but expulsions accumulate one at a time: the first one
		// may have elected a chooser that was itself about to be expelled.
		// Re-evaluate so the election settles on a true survivor.
	default:
		return
	}
	if len(e.lo) != 0 {
		return
	}
	idx := e.frameIndex(e.resAction)
	if idx < 0 {
		return
	}
	frame := e.stack[idx]
	for _, peer := range frame.Members {
		if peer == e.self {
			continue
		}
		if e.ackGot[peer] < e.ackWanted[peer] {
			return
		}
	}
	e.setState(StateReady, e.resAction)

	if e.stashed {
		e.finish(e.resAction, e.stashedExc)
		return
	}

	// Chooser rule: the object with the biggest number among all raisers
	// (or, with the fault-tolerance extension, one of the k biggest).
	if !e.isChooser() {
		return // wait for Commit
	}
	names := e.nameScratch[:0]
	for _, r := range e.le {
		names = append(names, r.Exc)
	}
	e.nameScratch = names
	resolved, err := frame.Tree.Resolve(names)
	if err != nil {
		// Unresolvable sets cannot occur for declared exceptions; fall back
		// to the universal exception to preserve liveness.
		resolved = frame.Tree.Root()
		e.log(trace.Event{Kind: trace.EvNote, Object: e.self, Action: frame.Action,
			Label: "resolve-error", Detail: err.Error()})
	}
	if e.hooks.Log != nil {
		e.log(trace.Event{Kind: trace.EvCommitChosen, Object: e.self,
			Action: frame.Action, Label: resolved, Detail: e.leDetail()})
	}
	e.multicast(frame, Msg{
		Kind:   KindCommit,
		Action: frame.Action,
		Path:   frame.Path,
		From:   e.self,
		Exc:    resolved,
	}, false /* wantAck */)
	e.finish(frame.Action, resolved)
}

// leDetail renders LE for the chooser's trace event byte for byte as
// fmt.Sprintf("LE=%v", e.le) did ("LE=[<A1, O2, E3> <A1, O1, E1>]"), in a
// scratch buffer.
//
//caa:noalloc
func (e *Engine) leDetail() string {
	b := e.detailScratch[:0]
	b = append(b, "LE=["...)
	for i, r := range e.le {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, "<A"...)
		b = strconv.AppendInt(b, int64(r.Action), 10)
		b = append(b, ", O"...)
		b = strconv.AppendInt(b, int64(r.Obj), 10)
		b = append(b, ", "...)
		b = append(b, r.Exc...)
		b = append(b, '>')
	}
	b = append(b, ']')
	e.detailScratch = b
	//protolint:allow noalloc one string per resolution, which the event keeps: every core engine logs into its server's trace
	return string(b)
}

// finish completes the resolution: record the committed exception, clear the
// lists and start the handler.
//
//caa:noalloc
func (e *Engine) finish(a ident.ActionID, exc string) {
	e.committed[a] = exc
	e.clearResolution()
	e.setState(StateNormal, a)
	e.log(trace.Event{Kind: trace.EvHandler, Object: e.self, Action: a, Label: exc})
	if e.hooks.StartHandler != nil {
		e.hooks.StartHandler(a, exc)
	}
}

// clearResolution empties LE, LO and LP and forgets the resolution level.
// Everything is cleared in place — clear() keeps a map's buckets, the slice
// keeps its capacity — so the next resolution over the same membership
// allocates nothing (the regression is guarded by TestEngineCommitCycleAllocs).
//
//caa:noalloc
func (e *Engine) clearResolution() {
	e.le = e.le[:0]
	clear(e.lo)
	clear(e.ackWanted)
	clear(e.ackGot)
	e.stashed = false
	e.stashedExc = ""
	e.resAction = 0
}

// Reset generalises clearResolution to the whole engine: it returns the
// engine to the state NewEngine leaves it in, rebound to a (possibly new)
// owner and hook set, while keeping every map's buckets and every slice's
// capacity. This is what makes pooling engines across actions cheap — a
// server draining thousands of short-lived actions reuses one warm engine
// per participant slot instead of reallocating the ledgers each time.
//
//caa:noalloc
func (e *Engine) Reset(self ident.ObjectID, hooks Hooks) {
	e.self = self
	e.hooks = hooks
	e.stack = e.stack[:0]
	e.state = StateNormal
	e.clearResolution()
	clear(e.committed)
	e.pending = e.pending[:0]
	e.waitPolicy = false
	e.deferred = e.deferred[:0]
	e.chooserGroup = 0
	e.suspendedAt = 0
	clear(e.expelled)
	// Truncate the scratch buffers too (keeping their capacity, which is the
	// point of pooling): no stale replay message or raiser ID from the
	// previous session is reachable through a reset engine.
	e.replayScratch = e.replayScratch[:0]
	e.nameScratch = e.nameScratch[:0]
	e.raiserScratch = e.raiserScratch[:0]
	e.detailScratch = e.detailScratch[:0]
}

// degradedMode reports whether the current resolution can only be concluded
// by survivors: members have been expelled, exceptions are on record, and
// every raiser among them is expelled. (With no expulsions this is always
// false, keeping non-partition runs on the unmodified state machine.)
//
//caa:noalloc
func (e *Engine) degradedMode() bool {
	if len(e.expelled) == 0 || len(e.le) == 0 {
		return false
	}
	for _, r := range e.le {
		if !e.expelled[r.Obj] {
			return false
		}
	}
	return true
}

// isChooser reports whether this object is among the top chooser-group
// raisers (by identifier order). The distinct-raisers set is computed on a
// reusable scratch slice with a linear dedup — LE is bounded by the
// membership, so quadratic scan beats a map here and allocates nothing.
// Expelled raisers cannot choose; when expulsion has removed every raiser,
// the biggest surviving member of the resolution frame takes over (the
// degraded-mode counterpart of the "biggest raiser" rule).
//
//caa:noalloc
func (e *Engine) isChooser() bool {
	rs := e.raiserScratch[:0]
	for _, r := range e.le {
		if len(e.expelled) > 0 && e.expelled[r.Obj] {
			continue
		}
		if !slices.Contains(rs, r.Obj) {
			rs = append(rs, r.Obj)
		}
	}
	slices.Sort(rs)
	e.raiserScratch = rs
	if len(rs) == 0 {
		if len(e.expelled) == 0 {
			return false
		}
		idx := e.frameIndex(e.resAction)
		if idx < 0 {
			return false
		}
		var biggest ident.ObjectID
		for _, m := range e.stack[idx].Members { // already excludes the expelled
			if m > biggest {
				biggest = m
			}
		}
		return biggest == e.self
	}
	k := e.chooserGroup
	if k < 1 {
		k = 1
	}
	if k > len(rs) {
		k = len(rs)
	}
	for _, r := range rs[len(rs)-k:] {
		if r == e.self {
			return true
		}
	}
	return false
}

// dropPendingNestedIn removes parked messages whose action is nested within
// a, filtering the pending list in place (no reentrancy here: dropping only
// logs).
//
//caa:noalloc
func (e *Engine) dropPendingNestedIn(a ident.ActionID) {
	keep := e.pending[:0]
	for _, m := range e.pending {
		if m.nestedWithin(a) {
			if e.hooks.Log != nil {
				e.log(trace.Event{Kind: trace.EvNote, Object: e.self, Action: m.Action,
					Label: "cleanup-nested-message", Detail: m.String()})
			}
			continue
		}
		keep = append(keep, m)
	}
	e.pending = keep
}

//caa:noalloc
func (e *Engine) frameIndex(a ident.ActionID) int {
	for i := range e.stack {
		if e.stack[i].Action == a {
			return i
		}
	}
	return -1
}

//caa:noalloc
func (e *Engine) setState(s State, a ident.ActionID) {
	if e.state == s {
		return
	}
	e.state = s
	e.log(trace.Event{Kind: trace.EvState, Object: e.self, Action: a, Label: s.String()})
}

//caa:noalloc
func (e *Engine) suspend(a ident.ActionID) {
	if e.suspendedAt == a {
		return
	}
	e.suspendedAt = a
	if e.hooks.Suspend != nil {
		e.hooks.Suspend(a)
	}
}

// multicast sends m to every member of the frame except self, optionally
// registering that each peer owes us an ACK.
//
//caa:noalloc
func (e *Engine) multicast(frame Frame, m Msg, wantAck bool) {
	for _, peer := range frame.Members {
		if peer == e.self {
			continue
		}
		if wantAck {
			e.ackWanted[peer]++
		}
		e.send(peer, m)
	}
}

//caa:noalloc
func (e *Engine) send(to ident.ObjectID, m Msg) {
	e.log(trace.Event{Kind: trace.EvSend, Object: e.self, Peer: to,
		Action: m.Action, Label: m.Kind, Detail: m.Exc})
	if e.hooks.Send != nil {
		e.hooks.Send(to, m)
	}
}

//caa:noalloc
func (e *Engine) log(ev trace.Event) {
	if e.hooks.Log != nil {
		e.hooks.Log(ev)
	}
}
