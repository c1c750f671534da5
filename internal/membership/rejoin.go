package membership

import (
	"sort"
	"time"

	"repro/internal/ident"
)

// Wire kinds of the rejoin protocol. Like KindView they ride the members'
// ordinary transports, so they share the fabric's partition fate.
const (
	// KindRejoinRequest carries a RejoinRequest from a healed member to the
	// members it believes alive; only the current coordinator answers.
	KindRejoinRequest = "membership.rejoin-request"
	// KindWelcome carries a Welcome from the coordinator back to a
	// petitioner: the current view plus a state-transfer snapshot.
	KindWelcome = "membership.welcome"
)

// RejoinRequest petitions for readmission after a healed partition. Epoch is
// the petitioner's last installed (stale) epoch, letting the coordinator tell
// an expelled member catching up from an in-view member confirming a
// symmetric blackout.
type RejoinRequest struct {
	From  ident.ObjectID
	Epoch uint64
}

// Welcome is the coordinator's readmission reply: the view the petitioner is
// (now) part of, plus the application-state snapshot it must install before
// acting in that view — the state transfer of view-synchronous rejoin.
type Welcome struct {
	View     View
	Snapshot any
}

// DeliverMessage routes one membership-layer wire message into the monitor:
// view installations, rejoin petitions, welcomes and lease traffic. It
// reports whether the kind belonged to this layer (false means the caller
// should handle the message itself). from is the transport-level sender.
func (m *Monitor) DeliverMessage(from ident.ObjectID, kind string, payload any) bool {
	switch kind {
	case KindView:
		if v, ok := payload.(View); ok {
			m.Deliver(v)
		}
	case KindRejoinRequest:
		if r, ok := payload.(RejoinRequest); ok {
			m.handleRejoinRequest(r)
		}
	case KindWelcome:
		if w, ok := payload.(Welcome); ok {
			m.handleWelcome(w)
		}
	case KindLeaseRequest:
		if r, ok := payload.(LeaseRequest); ok {
			m.handleLeaseRequest(from, r)
		}
	case KindLeaseGrant:
		if g, ok := payload.(LeaseGrant); ok {
			m.handleLeaseGrant(g)
		}
	default:
		return false
	}
	return true
}

// Isolated reports whether the monitor currently believes it has been cut
// from the primary partition (minority island observed, no readmission yet).
func (m *Monitor) Isolated() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.isolated
}

// isBaseMember reports whether obj belongs to the epoch-zero membership.
func (m *Monitor) isBaseMember(obj ident.ObjectID) bool {
	for _, b := range m.cfg.Members {
		if b == obj {
			return true
		}
	}
	return false
}

// handleRejoinRequest is the coordinator side of rejoin: admit the
// petitioner into the next epoch view and send it a Welcome with a state
// snapshot. Non-coordinators ignore petitions (the petitioner sprays every
// member it believes alive, so the real coordinator always hears it).
func (m *Monitor) handleRejoinRequest(r RejoinRequest) {
	if !m.cfg.Rejoin || r.From == m.cfg.Self || !m.isBaseMember(r.From) {
		return
	}
	now := m.clk.Now()
	m.mu.Lock()
	cur := m.cur
	if !cur.Contains(m.cfg.Self) || len(cur.Members) == 0 || cur.Members[0] != m.cfg.Self {
		m.mu.Unlock()
		return // not the coordinator
	}
	if cur.Contains(r.From) {
		// Already in the view: either a duplicate petition (our earlier
		// Welcome is in flight) or a symmetric blackout healed whole. Either
		// way a catch-up Welcome answers it — and a petition from an in-view
		// member at our own epoch proves the group still includes us.
		if r.Epoch == cur.Epoch {
			m.isolated = false
		}
		v := cur.Clone()
		m.mu.Unlock()
		m.sendWelcome(r.From, v)
		return
	}
	if m.cfg.Lease > 0 && !m.leaseValidLocked(now) {
		m.mu.Unlock()
		return // must not propose without the lease; the petitioner retries
	}
	members := append(append([]ident.ObjectID(nil), cur.Members...), r.From)
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	next := View{Epoch: cur.Epoch + 1, Members: members}
	m.installLocked(next)
	v := next.Clone()
	m.mu.Unlock()

	m.sendWelcome(r.From, v)
	if m.cfg.Send != nil {
		for _, member := range v.Members {
			if member == m.cfg.Self || member == r.From {
				continue
			}
			_ = m.cfg.Send(member, KindView, v.Clone())
		}
	}
}

// sendWelcome ships the view plus a fresh application snapshot to one
// petitioner. The snapshot is taken outside the monitor lock: Config.Snapshot
// may reach into the caller's own state.
func (m *Monitor) sendWelcome(to ident.ObjectID, v View) {
	if m.cfg.Send == nil {
		return
	}
	var snap any
	if m.cfg.Snapshot != nil {
		snap = m.cfg.Snapshot()
	}
	_ = m.cfg.Send(to, KindWelcome, Welcome{View: v, Snapshot: snap})
}

// handleWelcome is the petitioner side: install the snapshot (state
// transfer), then the view. Any welcome — even a stale one — proves the
// group talks to us again, so the isolated flag always clears.
func (m *Monitor) handleWelcome(w Welcome) {
	m.mu.Lock()
	m.isolated = false
	if w.View.Epoch <= m.cur.Epoch || !w.View.Contains(m.cfg.Self) {
		m.mu.Unlock()
		return
	}
	install := m.cfg.Install
	m.mu.Unlock()

	// State transfer strictly precedes the view switch: when subscribers see
	// the new view, the snapshot is already in place.
	if install != nil {
		install(w.Snapshot)
	}

	m.mu.Lock()
	if w.View.Epoch > m.cur.Epoch {
		m.installLocked(w.View.Clone())
	}
	m.mu.Unlock()
}

// poll is one suspicion check: if suspects shrink the current view, the
// surviving set still holds a majority of the base membership, and self is
// the prospective coordinator, propose (= install + multicast) the next view.
// With Lease set, a proposal also needs a valid lease, which the coordinator
// renews here; with Rejoin set, a member that saw itself in a minority island
// petitions for readmission once it sees a majority again.
func (m *Monitor) poll() {
	suspected := make(map[ident.ObjectID]bool)
	for _, s := range m.cfg.Suspector.Suspects() {
		suspected[s] = true
	}
	now := m.clk.Now()
	m.mu.Lock()
	base := m.cfg.Members
	aliveBase := make([]ident.ObjectID, 0, len(base))
	for _, b := range base {
		if b == m.cfg.Self || !suspected[b] {
			aliveBase = append(aliveBase, b)
		}
	}
	baseMajority := 2*len(aliveBase) > len(base)
	if !baseMajority {
		// Marooned in a minority island: the primary partition may be
		// expelling us right now. Remember, so we petition after the heal.
		m.isolated = true
	}

	// Rejoin petitions: once the island heals (we see a majority alive
	// again), spray a petition at every live peer; only the coordinator
	// answers. Repeated every poll until a Welcome or view clears isolated.
	var petition *RejoinRequest
	var petitionTo []ident.ObjectID
	if m.cfg.Rejoin && m.isolated && baseMajority {
		petition = &RejoinRequest{From: m.cfg.Self, Epoch: m.cur.Epoch}
		for _, p := range aliveBase {
			if p != m.cfg.Self {
				petitionTo = append(petitionTo, p)
			}
		}
	}

	// Proposal path, lease-gated when Lease is set.
	var proposed *View
	var leaseAsk []ident.ObjectID
	if m.cur.Contains(m.cfg.Self) {
		aliveView := make([]ident.ObjectID, 0, len(m.cur.Members))
		for _, member := range m.cur.Members {
			if member == m.cfg.Self || !suspected[member] {
				aliveView = append(aliveView, member)
			}
		}
		coordinator := len(aliveView) > 0 && aliveView[0] == m.cfg.Self &&
			2*len(aliveView) > len(base)
		if coordinator && m.cfg.Lease > 0 {
			// Continuous renewal: grant to self, then ask every live peer.
			// Grantors extend a standing grant for the same holder, so an
			// active coordinator's lease never lapses.
			if m.granted.holder == 0 || m.granted.holder == m.cfg.Self || !now.Before(m.granted.until) {
				m.granted = grantState{holder: m.cfg.Self, until: now.Add(m.cfg.Lease)}
				if m.grants == nil {
					m.grants = make(map[ident.ObjectID]time.Time)
				}
				m.grants[m.cfg.Self] = m.granted.until
			}
			for _, p := range aliveBase {
				if p != m.cfg.Self {
					leaseAsk = append(leaseAsk, p)
				}
			}
		}
		if coordinator && len(aliveView) < len(m.cur.Members) &&
			(m.cfg.Lease <= 0 || m.leaseValidLocked(now)) {
			next := View{Epoch: m.cur.Epoch + 1, Members: aliveView}
			m.installLocked(next)
			v := next.Clone()
			proposed = &v
		}
	}
	self := m.cfg.Self
	send := m.cfg.Send
	m.mu.Unlock()

	if send == nil {
		return
	}
	if petition != nil {
		for _, to := range petitionTo {
			_ = send(to, KindRejoinRequest, *petition)
		}
	}
	for _, to := range leaseAsk {
		_ = send(to, KindLeaseRequest, LeaseRequest{Candidate: self, Epoch: 0})
	}
	if proposed != nil {
		for _, member := range proposed.Members {
			if member != self {
				_ = send(member, KindView, proposed.Clone())
			}
		}
	}
}
