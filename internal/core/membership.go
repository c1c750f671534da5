package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/group"
	"repro/internal/ident"
	"repro/internal/membership"
	"repro/internal/trace"
)

// ExcParticipantFailure is the predefined exception the runtime raises on
// behalf of a participant expelled by the membership service. Runs with
// membership monitoring enabled must declare it in the exception tree (and,
// via the usual validation, cover it with handlers): a crashed or partitioned
// participant then resolves like any other exception, through the §4
// algorithm, as in the paper's Figure 1(b) abort-nested scenario.
const ExcParticipantFailure = "core.participant-failure"

// MembershipOptions enable partition-aware membership monitoring: every
// participant runs a heartbeat failure detector and a view monitor over its
// own session route (so membership traffic shares the participant's partition
// fate and, being tagged with the session's root action, never reaches
// another action's detector). When the surviving majority installs a view
// excluding a member, the runtime terminates the expelled participant's body,
// releases it from every completion barrier, and feeds each survivor's engine
// a synthesized ExcParticipantFailure raised on the expelled member's behalf.
type MembershipOptions struct {
	// Heartbeat is the failure detector's send period (default 5ms).
	Heartbeat time.Duration
	// Timeout is the silence span after which a peer is suspected
	// (default 10x Heartbeat).
	Timeout time.Duration
	// Poll is the view monitor's suspicion-polling period (default Heartbeat).
	Poll time.Duration
	// Rejoin makes the group persistent across runs and view-synchronously
	// readmittable: the server remembers which members the group expelled, a
	// new run excludes them from its action frames (they owe the group an
	// admission first), and — once the partition heals — the excluded
	// member's monitor petitions the surviving coordinator, catches up via a
	// state-transfer snapshot of the group's resolution history, and re-enters
	// the next epoch view, so subsequent actions include it again. Off by
	// default: expulsion stays permanent.
	Rejoin bool
	// Lease, when > 0 (requires Rejoin semantics to matter, but is honoured
	// independently), protects view proposals with quorum leases of that
	// term: a coordinator must hold unexpired grants from a majority of the
	// base membership before proposing, so a stale coordinator and a freshly
	// healed one can never elect concurrently.
	Lease time.Duration
}

func (o MembershipOptions) withDefaults() MembershipOptions {
	if o.Heartbeat <= 0 {
		o.Heartbeat = 5 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * o.Heartbeat
	}
	if o.Poll <= 0 {
		o.Poll = o.Heartbeat
	}
	return o
}

// GroupSnapshot is the state a welcoming coordinator transfers to a
// rejoining member: the persistent group's view epoch plus its resolution
// history (the exceptions resolved by runs the rejoiner missed).
type GroupSnapshot struct {
	Epoch    uint64
	Resolved []string
}

// groupState is the server-persistent membership record, maintained across
// runs in rejoin mode. The excluded set is derived, not stored: a base member
// absent from the current view owes the group a readmission. Guarded by
// Server.mu.
type groupState struct {
	base    []ident.ObjectID
	view    membership.View
	history []string
}

// ensureGroup initialises the persistent group on the first rejoin-mode run.
// The base membership is fixed then; later runs are assumed to name the same
// group (rejoin mode models one long-lived group per server).
func (s *Server) ensureGroup(members []ident.ObjectID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.group != nil {
		return
	}
	base := append([]ident.ObjectID(nil), members...)
	s.group = &groupState{
		base: base,
		view: membership.View{Epoch: 0, Members: append([]ident.ObjectID(nil), base...)},
	}
}

// GroupView returns the persistent group's current view (rejoin mode). The
// zero View is returned before the first rejoin-mode run.
func (s *Server) GroupView() membership.View {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.group == nil {
		return membership.View{}
	}
	return s.group.view.Clone()
}

// noteGroupView folds a view some participant's monitor installed into the
// persistent record. Monitors of every surviving participant report the same
// views, so the fold is idempotent by epoch. A view that readmits members
// counts only once each of them has installed the state its Welcome carried:
// until then the record, and with it admission to the next run, still
// excludes them, so a run that ends with a Welcome in flight leaves the
// petition to be repeated instead of a member readmitted without state
// transfer.
func (r *run) noteGroupView(v membership.View) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.group == nil || v.Epoch <= s.group.view.Epoch {
		return
	}
	for _, m := range v.Members {
		if _, installed := r.snapshots[m]; !installed && !s.group.view.Contains(m) {
			return
		}
	}
	s.group.view = v.Clone()
}

// appendHistory records one run's resolved exception in the state-transfer
// history.
func (s *Server) appendHistory(resolved string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.group != nil {
		s.group.history = append(s.group.history, resolved)
	}
}

// groupSnapshot builds the Welcome payload a coordinator ships to a
// rejoiner.
func (s *Server) groupSnapshot() any {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.group == nil {
		return GroupSnapshot{}
	}
	return GroupSnapshot{
		Epoch:    s.group.view.Epoch,
		Resolved: append([]string(nil), s.group.history...),
	}
}

// excludedOf returns the subset of members the persistent group currently
// excludes (expelled and not yet readmitted), or nil outside rejoin mode.
func (s *Server) excludedOf(members []ident.ObjectID) map[ident.ObjectID]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.group == nil {
		return nil
	}
	var out map[ident.ObjectID]bool
	for _, m := range members {
		if !s.group.view.Contains(m) {
			if out == nil {
				out = make(map[ident.ObjectID]bool)
			}
			out[m] = true
		}
	}
	return out
}

// validateMembership gates membership-enabled runs: the socket transport's
// codec cannot carry view payloads, and the participant-failure exception
// must be resolvable (declared in the tree; handler coverage then follows
// from ActionSpec.Validate).
func (s *Server) validateMembership(def *Definition) error {
	if s.opts.Membership == nil {
		return nil
	}
	if s.opts.Transport == TransportTCP {
		return errors.New("core: membership monitoring is not supported over TransportTCP")
	}
	if !def.Spec.Tree.Contains(ExcParticipantFailure) {
		return fmt.Errorf("core: membership monitoring requires the exception tree to declare %q", ExcParticipantFailure)
	}
	return nil
}

// Partition installs (or replaces) a named partition group on the server's
// fabric: the named objects form one island, everyone else the other, and
// messages crossing the boundary are dropped until HealPartition — for every
// action in flight and every later one, since all of them share the one
// fabric. The objects must be bound (have taken part in a run). With
// membership monitoring enabled, a minority island's members are eventually
// expelled by the surviving majority of each action they take part in.
func (s *Server) Partition(name string, objs ...ident.ObjectID) error {
	if s.opts.Transport == TransportTCP {
		return errors.New("core: named partitions require a netsim-backed transport")
	}
	return s.dir.Partition(name, objs...)
}

// HealPartition removes a named partition group installed with Partition,
// whether or not a run is in progress. Expulsions already decided stay
// decided: views are one-way.
func (s *Server) HealPartition(name string) {
	s.dir.HealPartition(name)
}

// startMembership wires a participant's failure detector and view monitor
// onto its session route. The participant's drain owns the session inbox and
// tees heartbeat arrivals in to the detector, and the monitor's installations
// travel as ordinary tagged messages. Neither has a goroutine: both are
// callbacks on the server's clock. The route is already registered, so a
// peer's heartbeat may be draining meanwhile: the two are published under
// the engine lock, once the monitor is subscribed.
func (p *participant) startMembership() {
	mo := p.run.sys.opts.Membership
	if mo == nil {
		return
	}
	cfg := mo.withDefaults()
	members := p.run.spec.Members
	clk := p.run.sys.clk
	detector := group.NewFedDetector(p.obj, p.route.notify, members, cfg.Heartbeat, cfg.Timeout, clk)
	mcfg := membership.Config{
		Self:      p.obj,
		Members:   members,
		Suspector: detector,
		Send:      p.route.notify,
		Poll:      cfg.Poll,
		Clock:     clk,
		Lease:     mo.Lease,
	}
	if mo.Rejoin {
		// The monitor joins the server's persistent group mid-history: it
		// continues the group's epoch numbering, and a member the group
		// expelled in an earlier run starts in petitioner mode.
		view := p.run.sys.GroupView()
		mcfg.Initial = &view
		mcfg.Rejoin = true
		mcfg.Isolated = p.run.preExpelled[p.obj]
		mcfg.Snapshot = p.run.sys.groupSnapshot
		obj := p.obj
		mcfg.Install = func(snap any) { p.run.noteInstalled(obj, snap) }
	}
	monitor := membership.NewMonitor(mcfg)
	monitor.Subscribe(p.viewChanged)
	p.emu.Lock()
	p.detector, p.monitor = detector, monitor
	p.emu.Unlock()
}

// viewChanged runs in one of the monitor's clock callbacks whenever a view
// installs:
// every member the new view dropped is expelled at the run level, and in
// rejoin mode the persistent group record follows the installed epochs.
func (p *participant) viewChanged(old, new membership.View) {
	if p.run.sys.opts.Membership.Rejoin {
		p.run.noteGroupView(new)
	}
	for _, m := range old.Members {
		if !new.Contains(m) {
			p.run.expel(m)
		}
	}
}

// noteInstalled records the state-transfer snapshot a rejoining participant
// installed from its Welcome. That installation — the rejoiner's own, not the
// survivors' view change — is what the outcome reports as the rejoin, so a
// member is never reported rejoined without its snapshot. The member stays
// out of this run's action frames: view synchrony admits it to subsequent
// actions, not half-finished ones.
func (r *run) noteInstalled(obj ident.ObjectID, snap any) {
	r.mu.Lock()
	if r.snapshots == nil {
		r.snapshots = make(map[ident.ObjectID]any)
	}
	r.snapshots[obj] = snap
	r.mu.Unlock()
	r.sys.log.Record(trace.Event{Kind: trace.EvNote, Object: obj, Label: "participant-rejoined"})
}

// frameMembers filters an action's member list by the run's admission
// decision: members the persistent group excluded when the run started never
// appear in protocol frames, so engines neither wait for their ACKs nor
// count them as resolution parties. The pre-expelled set is fixed before any
// body launches, so every participant filters identically.
func (r *run) frameMembers(ms []ident.ObjectID) []ident.ObjectID {
	if len(r.preExpelled) == 0 {
		return ms
	}
	out := make([]ident.ObjectID, 0, len(ms))
	for _, m := range ms {
		if !r.preExpelled[m] {
			out = append(out, m)
		}
	}
	return out
}

// expel processes the membership service's verdict on obj, exactly once per
// run even though every survivor's monitor reports the same view change:
// release obj from every completion barrier, feed every surviving engine the
// synthesized participant-failure exception, and terminate obj's own body.
func (r *run) expel(obj ident.ObjectID) {
	r.mu.Lock()
	if r.expelled == nil {
		r.expelled = make(map[ident.ObjectID]bool)
	}
	if r.expelled[obj] {
		r.mu.Unlock()
		return
	}
	r.expelled[obj] = true
	insts := append([]*instance{&r.top}, r.nested...)
	parts := make([]*participant, 0, len(r.top.slab))
	for k := range r.top.slab {
		if p := r.top.slab[k].ctx.p; p != nil {
			parts = append(parts, p)
		}
	}
	r.mu.Unlock()

	r.sys.log.Record(trace.Event{Kind: trace.EvNote, Object: obj, Label: "participant-expelled"})
	for _, inst := range insts {
		inst.expel(obj)
	}
	var victim *participant
	for _, p := range parts {
		if p.obj == obj {
			victim = p
		} else {
			// Each engine takes the expulsion the way it takes a message,
			// from its session mailbox: queued without blocking the monitor
			// callback behind a busy drain, counted on the clock, and
			// dropped if the participant has shut down.
			p.route.disp.route(group.Delivery{From: obj, Kind: expelNote, Action: p.route.root})
		}
	}
	if victim != nil {
		victim.markExpelled()
	}
}

// expelNote is the kind of the local delivery that tells an engine a member
// was expelled (Delivery.From). It never crosses the fabric.
const expelNote = "core.expelled"

// markExpelled terminates this (expelled) participant's body: it unwinds
// like a cancellation, but runTop reports it as an expulsion.
func (p *participant) markExpelled() {
	p.smu.Lock()
	p.expelledSelf = true
	p.smu.Unlock()
	p.setSuspendLevel(levelCancelled)
}

func (p *participant) isExpelled() bool {
	p.smu.Lock()
	defer p.smu.Unlock()
	return p.expelledSelf
}

// expel releases obj from this instance's completion barrier: survivors must
// not wait forever for a member that will never arrive. If obj was the last
// missing arrival, the barrier opens now.
func (i *instance) expel(obj ident.ObjectID) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if !i.spec.isMember(obj) || i.expelled[obj] {
		return
	}
	if i.expelled == nil {
		i.expelled = make(map[ident.ObjectID]bool)
	}
	i.expelled[obj] = true
	i.member(obj).arrived = false
	if !i.exitClosed && i.allArrivedLocked() {
		i.finishLocked()
	}
}

// allArrivedLocked reports whether every non-expelled member reached the
// completion barrier. Caller holds i.mu. An instance whose members were all
// expelled never finishes — nobody is left to wait on it.
func (i *instance) allArrivedLocked() bool {
	surviving, arrived := 0, 0
	for k := range i.slab {
		if m := &i.slab[k]; !i.expelled[m.rctx.Object] {
			surviving++
			if m.arrived {
				arrived++
			}
		}
	}
	return surviving > 0 && arrived == surviving
}
