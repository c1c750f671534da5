// Package membership provides partition-aware group views on top of the
// group layer's failure detector — the "group membership service" half of the
// paper's §4.5 implementation sketch ("participating objects in a CA action
// could be treated as members of a closed group"). Where package group only
// *suspects* a silent peer, this package *decides*: a Monitor turns stable
// suspicion into an epoch-numbered View excluding the suspect, installs it on
// the surviving majority, and reports the change to its subscribers, who can
// then raise the predefined participant-failure exception the paper's
// Figure 1(b) abort-nested scenario needs.
//
// Decisions are one-way by default: a member expelled from a view is never
// re-admitted, even if its partition heals, because the survivors have by then
// resolved an exception on its behalf and committed an outcome it never saw.
// Minority islands never install new views (the majority gate), so they stall
// in degraded mode rather than diverge — the classic primary-partition rule.
//
// Two opt-in extensions relax that default without giving up its safety:
//
//   - Rejoin (Config.Rejoin): an expelled-then-healed member detects its own
//     exclusion (it observed a minority island), petitions the current
//     coordinator for readmission, and catches up via state transfer — the
//     coordinator answers with a Welcome carrying the current view and a
//     Snapshot of application state, installs the member into the next epoch
//     view, and multicasts it, so subsequent actions include the rejoiner.
//   - Quorum leases (Config.Lease): a coordinator may only propose views
//     while it holds time-bounded grants from a majority of the base
//     membership. Any two majorities intersect and a grantor never grants to
//     a second candidate while an earlier grant stands, so a stale
//     coordinator and a freshly healed one can never elect concurrently —
//     the degraded biggest-surviving-member chooser is unique per lease term.
//
// All timers run on the vclock.Clock seam as callbacks (a Monitor has no
// goroutine): with a vclock.Virtual the whole suspicion/expel/heal/rejoin
// cycle executes in microseconds of real time and in an order that is a
// function of the program.
package membership

import (
	"sort"
	"sync"
	"time"

	"repro/internal/ident"
	"repro/internal/vclock"
)

// KindView is the wire kind of view-installation messages.
const KindView = "membership.view"

// View is an epoch-numbered membership snapshot. Epochs increase by exactly
// one per installed view; members only ever leave.
type View struct {
	Epoch   uint64
	Members []ident.ObjectID
}

// Contains reports whether obj is a member of the view.
func (v View) Contains(obj ident.ObjectID) bool {
	for _, m := range v.Members {
		if m == obj {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the view.
func (v View) Clone() View {
	return View{Epoch: v.Epoch, Members: append([]ident.ObjectID(nil), v.Members...)}
}

// Suspector is the slice of the failure detector the monitor consumes.
// *group.Detector implements it.
type Suspector interface {
	Suspects() []ident.ObjectID
}

// Config parameterises a Monitor.
type Config struct {
	// Self is the member the monitor runs inside.
	Self ident.ObjectID
	// Members is the base membership (the view at epoch zero). The majority
	// gate is measured against it.
	Members []ident.ObjectID
	// Suspector supplies the current suspicion set, polled every Poll.
	Suspector Suspector
	// Send transmits a view installation to one member; used only by the
	// coordinator. Errors are ignored: an unreachable member is by definition
	// one the new view excludes or the next epoch will.
	Send func(to ident.ObjectID, kind string, payload any) error
	// Poll is the suspicion-polling period.
	Poll time.Duration
	// Clock is the seam for the poll timer, callback dispatch and lease
	// expiry. Nil means the real clock.
	Clock vclock.Clock
	// Rejoin enables view-synchronous readmission: expelled members petition
	// after their partition heals and the coordinator welcomes them back into
	// the next epoch view with a state-transfer snapshot. Off by default —
	// decisions stay one-way.
	Rejoin bool
	// Lease, when > 0, protects view proposals with quorum leases of that
	// term: a coordinator must hold unexpired grants from a majority of the
	// base membership before installing any view. Zero disables leases.
	Lease time.Duration
	// Snapshot, consulted by a welcoming coordinator, returns the
	// application-state payload shipped to a rejoiner inside its Welcome.
	// Nil sends a nil snapshot.
	Snapshot func() any
	// Install receives a Welcome's snapshot on the rejoining side, before
	// the welcome view installs (so state is in place when view-change
	// subscribers fire). Nil ignores snapshots.
	Install func(snapshot any)
	// Initial, when non-nil, seeds the monitor with an already-installed view
	// instead of the epoch-zero base view — a member (re)starting inside a
	// long-lived group continues the group's epoch numbering. The majority
	// gate still measures against Members.
	Initial *View
	// Isolated seeds the isolated flag: a member that knows it was expelled
	// before this monitor started (e.g. across runs of a persistent group)
	// petitions for readmission as soon as it sees a healed majority.
	Isolated bool
}

// Monitor drives view changes for one member. All members run one; only the
// prospective coordinator (the smallest surviving member) proposes, so a
// partition event yields one proposal stream, not N. Views install either
// locally (the coordinator's own proposal) or via Deliver (everyone else).
type Monitor struct {
	cfg Config
	clk vclock.Clock

	mu      sync.Mutex
	cur     View
	subs    []func(old, new View)
	pending []viewChange // unbounded: install never blocks on dispatch

	// Rejoin state: isolated is set when self observes a minority island
	// (the primary partition may be expelling us) and cleared by a Welcome
	// or by installing a view that contains self.
	isolated bool
	// Lease state. granted is the grantor side: the single outstanding
	// grant this member has issued. grants is the candidate side: the
	// unexpired grants this member has collected, keyed by grantor.
	granted grantState
	grants  map[ident.ObjectID]time.Time

	// Subscribers are called from clock callbacks (the poll, or a dispatch
	// armed for the current instant by an install), never from the caller of
	// Deliver: a subscriber may synchronously re-enter the participant
	// machinery that called Deliver in the first place. run serialises those
	// callbacks with each other and with Stop, so changes are delivered in
	// installation order and none after Stop has returned; it guards poller
	// and stopped.
	run     sync.Mutex
	poller  vclock.Handle // re-armed by each poll
	stopped bool
}

type viewChange struct{ old, new View }

// NewMonitor starts a monitor. The initial view is epoch zero over
// cfg.Members (sorted); no callback fires for it.
func NewMonitor(cfg Config) *Monitor {
	base := append([]ident.ObjectID(nil), cfg.Members...)
	sort.Slice(base, func(i, j int) bool { return base[i] < base[j] })
	cfg.Members = base
	cur := View{Epoch: 0, Members: base}
	if cfg.Initial != nil {
		cur = cfg.Initial.Clone()
	}
	m := &Monitor{
		cfg:      cfg,
		clk:      vclock.Or(cfg.Clock),
		cur:      cur,
		isolated: cfg.Isolated,
	}
	m.run.Lock()
	m.poller = m.clk.AfterFunc(cfg.Poll, m.onPoll)
	m.run.Unlock()
	return m
}

// Current returns the installed view.
func (m *Monitor) Current() View {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur.Clone()
}

// Base returns the epoch-zero membership the monitor was created with,
// sorted. It never changes, no matter how many views install.
func (m *Monitor) Base() []ident.ObjectID {
	return append([]ident.ObjectID(nil), m.cfg.Members...)
}

// Subscribe registers a view-change callback, fired from a clock callback
// with the old and new views, in installation order.
func (m *Monitor) Subscribe(fn func(old, new View)) {
	m.mu.Lock()
	m.subs = append(m.subs, fn)
	m.mu.Unlock()
}

// Deliver hands the monitor a view received off the wire. Stale epochs and
// views that exclude self are ignored (an excluded member keeps its last
// view: it is in degraded mode, not in a rival group).
func (m *Monitor) Deliver(v View) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v.Epoch <= m.cur.Epoch || !v.Contains(m.cfg.Self) {
		return
	}
	m.isolated = false // the group demonstrably includes us
	m.installLocked(v.Clone())
}

// Stop terminates the monitor: the poll is disarmed, a callback in progress
// is waited for and queued changes are delivered first, so Stop means "all
// callbacks delivered". Idempotent; it must not be called from a subscriber.
func (m *Monitor) Stop() {
	m.run.Lock()
	defer m.run.Unlock()
	if !m.stopped {
		m.stopped = true
		m.poller.Stop()
		m.dispatch()
	}
}

// installLocked swaps the view in, queues the change and arms its dispatch for
// the current instant. Callers hold m.mu; the queue is unbounded so installing
// never blocks against a dispatch in progress.
func (m *Monitor) installLocked(v View) {
	old := m.cur
	m.cur = v
	m.pending = append(m.pending, viewChange{old: old, new: v.Clone()})
	m.clk.AfterFunc(0, m.onInstall)
}

// onPoll is the poll timer's callback: one suspicion check, the changes it
// queued, and the next poll is armed.
func (m *Monitor) onPoll() {
	m.run.Lock()
	defer m.run.Unlock()
	if m.stopped {
		return
	}
	m.poll()
	m.dispatch()
	m.poller.Reset(m.cfg.Poll)
}

// onInstall delivers what an install outside the poll queued.
func (m *Monitor) onInstall() {
	m.run.Lock()
	defer m.run.Unlock()
	if !m.stopped {
		m.dispatch()
	}
}

// dispatch fires every queued view change, in installation order. Caller
// holds m.run.
func (m *Monitor) dispatch() {
	for {
		m.mu.Lock()
		if len(m.pending) == 0 {
			m.mu.Unlock()
			return
		}
		c := m.pending[0]
		m.pending = m.pending[1:]
		subs := make([]func(old, new View), len(m.subs))
		copy(subs, m.subs)
		m.mu.Unlock()
		for _, fn := range subs {
			fn(c.old.Clone(), c.new.Clone())
		}
	}
}
