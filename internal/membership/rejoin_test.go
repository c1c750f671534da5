package membership

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fifo"
	"repro/internal/group"
	"repro/internal/ident"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/transport/conformancetest"
	"repro/internal/vclock"
)

// memNode is one member of the rejoin harness: a fed detector plus a monitor
// fed off the harness inbox, over whatever fabric the flavour provides.
type memNode struct {
	self ident.ObjectID
	send func(m transport.Message) error
	det  *group.Detector
	mon  *Monitor

	installed atomic.Value // last Welcome snapshot, as string
}

// sendTo is the node's send function for its fed detector and monitor.
// Receptions flow through the harness inbox.
func (n *memNode) sendTo(to ident.ObjectID, kind string, payload any) error {
	return n.send(transport.Message{From: n.self, To: to, Kind: kind, Payload: payload})
}

// membershipCodec serialises the membership-layer payloads for the TCP
// fabric, which genuinely ships bytes between listeners: the harness encodes
// each payload to bytes before the send and decodes it on delivery.
type membershipCodec struct{}

type codedMsg struct {
	T string
	D json.RawMessage
}

func (membershipCodec) Encode(v any) ([]byte, error) {
	var t string
	switch v.(type) {
	case nil:
		return json.Marshal(codedMsg{T: "nil"})
	case View:
		t = "view"
	case RejoinRequest:
		t = "rejoin"
	case Welcome:
		t = "welcome"
	case LeaseRequest:
		t = "lease-req"
	case LeaseGrant:
		t = "lease-grant"
	default:
		return nil, fmt.Errorf("membershipCodec: unsupported %T", v)
	}
	d, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return json.Marshal(codedMsg{T: t, D: d})
}

func (membershipCodec) Decode(v any) (any, error) {
	raw, ok := v.([]byte)
	if !ok {
		return nil, fmt.Errorf("membershipCodec: non-bytes %T", v)
	}
	var cm codedMsg
	if err := json.Unmarshal(raw, &cm); err != nil {
		return nil, err
	}
	switch cm.T {
	case "nil":
		return nil, nil
	case "view":
		var out View
		return out, json.Unmarshal(cm.D, &out)
	case "rejoin":
		var out RejoinRequest
		return out, json.Unmarshal(cm.D, &out)
	case "welcome":
		// Snapshot is a string in these tests; keep it typed across the wire.
		var w struct {
			View     View
			Snapshot string
		}
		if err := json.Unmarshal(cm.D, &w); err != nil {
			return nil, err
		}
		return Welcome{View: w.View, Snapshot: w.Snapshot}, nil
	case "lease-req":
		var out LeaseRequest
		return out, json.Unmarshal(cm.D, &out)
	case "lease-grant":
		var out LeaseGrant
		return out, json.Unmarshal(cm.D, &out)
	}
	return nil, fmt.Errorf("membershipCodec: unknown tag %q", cm.T)
}

// buildFabric constructs one of the four delivery fabrics and routes every
// delivery to the deliver callback. The returned send is safe for concurrent
// use on every flavour (the step-driven fabrics get a lock and a stepping
// pump). The tcp flavour ignores clk: bytes in the kernel cannot be counted.
func buildFabric(t *testing.T, flavour string, members []ident.ObjectID, clk vclock.Clock,
	faults transport.FaultPolicy, deliver func(m transport.Message)) (func(transport.Message) error, func()) {
	t.Helper()
	switch flavour {
	case "deterministic", "randomized":
		det := transport.NewDeterministic(transport.Options{Faults: faults})
		if flavour == "randomized" {
			det.SetChooser(transport.RandChooser(rand.New(rand.NewSource(7))))
		}
		for _, m := range members {
			det.Register(m, deliver)
		}
		// The stepper is a pump on the test's clock, kicked by every send, so
		// the clock counts a message the fabric has queued as outstanding work.
		// deliver must not send from inside Step (the harness inbox does not).
		var mu sync.Mutex
		stepper := fifo.Start(clk, func(struct{}) {
			mu.Lock()
			for det.Step() {
			}
			mu.Unlock()
		}, nil)
		send := func(m transport.Message) error {
			mu.Lock()
			defer mu.Unlock()
			stepper.Put(struct{}{})
			return det.Send(m)
		}
		cleanup := func() {
			stepper.Close()
			mu.Lock()
			_ = det.Close()
			mu.Unlock()
		}
		return send, cleanup
	case "concurrent":
		net := netsim.New(netsim.Config{Clock: clk})
		fab := transport.NewConcurrent(net, transport.ConcurrentOptions{Faults: faults})
		for i, m := range members {
			if _, err := fab.BindFunc(m, ident.NodeID(i+1), deliver, nil); err != nil {
				t.Fatal(err)
			}
		}
		return fab.Send, func() { _ = fab.Close(); net.Close() }
	case "tcp":
		fabs := make(map[ident.ObjectID]*transport.TCP, len(members))
		var codec membershipCodec
		decoded := func(m transport.Message) {
			p, err := codec.Decode(m.Payload)
			if err != nil {
				t.Errorf("delivery %+v: %v", m, err)
				return
			}
			m.Payload = p
			deliver(m)
		}
		for _, m := range members {
			fab, err := transport.NewTCP(transport.TCPOptions{Faults: faults})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fab.BindFunc(m, decoded, nil); err != nil {
				t.Fatal(err)
			}
			fabs[m] = fab
		}
		for _, m := range members {
			for _, peer := range members {
				if peer != m {
					fabs[m].SetPeer(peer, fabs[peer].Addr())
				}
			}
		}
		send := func(m transport.Message) error {
			b, err := codec.Encode(m.Payload)
			if err != nil {
				return err
			}
			m.Payload = b
			return fabs[m.From].Send(m)
		}
		return send, func() {
			for _, fab := range fabs {
				_ = fab.Close()
			}
		}
	}
	t.Fatalf("unknown fabric flavour %q", flavour)
	return nil, nil
}

// startNodes spins up the full membership stack (fed detector, monitor with
// rejoin + leases) for every member on the given fabric, whose fault policy
// is cuts: the same partition works identically on all four backends. Every delivery goes
// through one inbox pump counted on clk, whose handler feeds the destination's
// detector or monitor: nothing in the harness is invisible to the clock.
func startNodes(t *testing.T, flavour string, members []ident.ObjectID, clk vclock.Clock,
	cuts *transport.Partitions, lease, timeout time.Duration) (map[ident.ObjectID]*memNode, func()) {
	t.Helper()
	nodes := make(map[ident.ObjectID]*memNode, len(members))
	// The consumer waits until every node exists, so the map is only read
	// once it is complete; what arrives meanwhile (real-clock beats) waits in
	// the pump.
	built := make(chan struct{})
	inbox := fifo.Start(clk, func(m transport.Message) {
		<-built
		n := nodes[m.To]
		if m.Kind == group.KindHeartbeat {
			n.det.Observe(m.From)
			return
		}
		n.mon.DeliverMessage(m.From, m.Kind, m.Payload)
	}, nil)
	send, cleanupFabric := buildFabric(t, flavour, members, clk, cuts.Verdict, inbox.Put)
	for _, m := range members {
		n := &memNode{self: m, send: send}
		nodes[m] = n
		n.det = group.NewFedDetector(m, n.sendTo, members, time.Millisecond, timeout, clk)
		self := m
		n.mon = NewMonitor(Config{
			Self:      m,
			Members:   members,
			Suspector: n.det,
			Send:      n.sendTo,
			Poll:      pollEvery,
			Clock:     clk,
			Rejoin:    true,
			Lease:     lease,
			Snapshot:  func() any { return fmt.Sprintf("snap-from-%d", self) },
			Install:   func(snap any) { n.installed.Store(fmt.Sprint(snap)) },
		})
	}
	close(built)
	cleanup := func() {
		for _, n := range nodes {
			n.mon.Stop()
			n.det.Stop()
		}
		cleanupFabric()
		inbox.Close()
	}
	return nodes, cleanup
}

// pollEvery is the monitors' poll period and the step the hand-advanced tests
// move the clock by.
const pollEvery = 2 * time.Millisecond

// advanceUntil moves a hand-advanced clock one poll at a time until cond
// holds. Advance returns when everything the step caused has settled, so cond
// reads a quiescent system and the instant it first holds is exact.
func advanceUntil(t *testing.T, clk *vclock.Virtual, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ { // 10 s of virtual time
		if cond() {
			return
		}
		clk.Advance(pollEvery)
	}
	t.Fatalf("%s: still false after 10s of virtual time; clock: %v", what, clk)
}

// TestRejoinStateTransferAllFabrics is the acceptance check for rejoin: on
// each of the four delivery fabrics, members {4,5} are cut away, expelled by
// the majority, healed, and must re-enter the view via Welcome state
// transfer — every member converges on a full view and the rejoiners hold
// the coordinator's snapshot.
func TestRejoinStateTransferAllFabrics(t *testing.T) {
	for _, flavour := range []string{"deterministic", "randomized", "concurrent", "tcp"} {
		flavour := flavour
		t.Run(flavour, func(t *testing.T) {
			leak := conformancetest.LeakCheckErr()
			// Three fabrics run on a hand-advanced virtual clock. TCP ships real
			// bytes through real sockets, which no clock can count: it runs on
			// the real one, polled, with a timeout long enough for a loaded box.
			var clk vclock.Clock
			timeout := 25 * time.Millisecond
			wait := func(what string, cond func() bool) { waitFor(t, what, cond) }
			if flavour == "tcp" {
				timeout = 100 * time.Millisecond
			} else {
				v := vclock.NewVirtual()
				clk = v
				wait = func(what string, cond func() bool) { advanceUntil(t, v, what, cond) }
			}

			members := []ident.ObjectID{1, 2, 3, 4, 5}
			var cuts transport.Partitions
			nodes, cleanup := startNodes(t, flavour, members, clk, &cuts, 50*time.Millisecond, timeout)

			wait("initial liveness", func() bool {
				return len(nodes[1].det.Suspects()) == 0 && len(nodes[4].det.Suspects()) == 0
			})

			cuts.Set("cut", 4, 5)
			for _, m := range []ident.ObjectID{1, 2, 3} {
				m := m
				wait(fmt.Sprintf("%s: majority view on %d", flavour, m), func() bool {
					cur := nodes[m].mon.Current()
					return cur.Epoch >= 1 && sameMembers(cur.Members, []ident.ObjectID{1, 2, 3})
				})
			}
			wait("cut members detect isolation", func() bool {
				return nodes[4].mon.Isolated() && nodes[5].mon.Isolated()
			})

			cuts.Heal("cut")
			// Convergence is one polled condition: every member reports the
			// same epoch, the full membership, and no lingering isolation.
			// (Point-in-time reads would race transient suspicion flaps that
			// the rejoin protocol heals on its own.)
			wait(flavour+": all members converge on the full view", func() bool {
				e := nodes[1].mon.Current().Epoch
				for _, m := range members {
					cur := nodes[m].mon.Current()
					if cur.Epoch != e || !sameMembers(cur.Members, members) {
						return false
					}
					if nodes[m].mon.Isolated() {
						return false
					}
				}
				return true
			})
			// State transfer: the rejoiners hold the coordinator's snapshot.
			for _, m := range []ident.ObjectID{4, 5} {
				snap, _ := nodes[m].installed.Load().(string)
				if snap != "snap-from-1" {
					t.Errorf("%s: member %d installed snapshot %q, want snap-from-1", flavour, m, snap)
				}
			}

			cleanup()
			if err := leak(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestLeaseBlocksStaleElection is the acceptance check for quorum leases: cut
// the lease-holding coordinator away; the surviving majority must wait out
// the stale lease before electing, and the stale ex-coordinator can never
// elect or hold the lease again.
func TestLeaseBlocksStaleElection(t *testing.T) {
	leak := conformancetest.LeakCheckErr()
	clk := vclock.NewVirtual()

	const lease = 500 * time.Millisecond // dwarfs poll and timeout
	members := []ident.ObjectID{1, 2, 3, 4, 5}
	var cuts transport.Partitions
	nodes, cleanup := startNodes(t, "concurrent", members, clk, &cuts, lease, 25*time.Millisecond)

	advanceUntil(t, clk, "initial liveness", func() bool {
		return len(nodes[1].det.Suspects()) == 0
	})
	// Let the coordinator acquire (and start renewing) the quorum lease.
	advanceUntil(t, clk, "coordinator holds lease", func() bool { return nodes[1].mon.HoldsLease() })

	cutAt := clk.Now()
	cuts.Set("cut", 1)

	advanceUntil(t, clk, "new majority view without the old coordinator", func() bool {
		cur := nodes[2].mon.Current()
		return cur.Epoch == 1 && sameMembers(cur.Members, []ident.ObjectID{2, 3, 4, 5})
	})
	electedAt := clk.Now()

	// The election could not have happened while the stale lease stood: the
	// grantors' promises ran until at least cutAt + lease - poll (the last
	// renewal was at most one poll before the cut). Both instants are exact.
	if waited := electedAt.Sub(cutAt); waited < lease-pollEvery {
		t.Errorf("majority elected after %v, inside the stale %v lease", waited, lease)
	}

	// The stale minority: never elects, never regains the lease.
	if cur := nodes[1].mon.Current(); cur.Epoch != 0 {
		t.Errorf("stale coordinator installed epoch %d", cur.Epoch)
	}
	if nodes[1].mon.HoldsLease() {
		t.Error("stale coordinator still holds the lease after expiry")
	}
	// And it stays that way: give it plenty of virtual time alone.
	clk.Advance(2 * lease)
	if cur := nodes[1].mon.Current(); cur.Epoch != 0 {
		t.Errorf("stale coordinator eventually installed epoch %d", cur.Epoch)
	}

	cleanup()
	if err := leak(); err != nil {
		t.Error(err)
	}
}

// TestLeaseGrantConflict pins the grantor rule directly: while an unexpired
// grant to one candidate stands, a rival is refused; after expiry (virtual
// time) the rival is granted.
func TestLeaseGrantConflict(t *testing.T) {
	clk := vclock.NewVirtual()
	var mu sync.Mutex
	grants := make(map[ident.ObjectID][]LeaseGrant)
	mon := NewMonitor(Config{
		Self:      3,
		Members:   []ident.ObjectID{1, 2, 3},
		Suspector: suspectorFunc(func() []ident.ObjectID { return nil }),
		Send: func(to ident.ObjectID, kind string, payload any) error {
			if kind == KindLeaseGrant {
				mu.Lock()
				grants[to] = append(grants[to], payload.(LeaseGrant))
				mu.Unlock()
			}
			return nil
		},
		Poll:  time.Hour,
		Clock: clk,
		Lease: 20 * time.Millisecond,
	})
	defer mon.Stop()

	granted := func(to ident.ObjectID) int {
		mu.Lock()
		defer mu.Unlock()
		return len(grants[to])
	}

	mon.DeliverMessage(1, KindLeaseRequest, LeaseRequest{Candidate: 1})
	if granted(1) != 1 {
		t.Fatalf("first request granted %d times, want 1", granted(1))
	}
	// A rival inside the term is refused by silence.
	mon.DeliverMessage(2, KindLeaseRequest, LeaseRequest{Candidate: 2})
	if granted(2) != 0 {
		t.Fatalf("conflicting grant issued: %v", grants[2])
	}
	// The holder renews within the term.
	mon.DeliverMessage(1, KindLeaseRequest, LeaseRequest{Candidate: 1})
	if granted(1) != 2 {
		t.Fatalf("renewal refused: %d grants", granted(1))
	}
	// After expiry the rival gets its grant.
	clk.Advance(25 * time.Millisecond)
	mon.DeliverMessage(2, KindLeaseRequest, LeaseRequest{Candidate: 2})
	if granted(2) != 1 {
		t.Fatalf("post-expiry request granted %d times, want 1", granted(2))
	}
	// A request relayed for somebody else is ignored (candidate must be the
	// transport-level sender).
	mon.DeliverMessage(2, KindLeaseRequest, LeaseRequest{Candidate: 1})
	if granted(1) != 2 {
		t.Fatalf("spoofed request granted: %d", granted(1))
	}
}

// TestRejoinFlappingMember drives repeated cut/heal cycles against one member
// on the virtual clock: every cycle must expel and then readmit it, with
// epochs strictly increasing and a converged full view at the end.
func TestRejoinFlappingMember(t *testing.T) {
	leak := conformancetest.LeakCheckErr()
	clk := vclock.NewVirtual()

	members := []ident.ObjectID{1, 2, 3, 4, 5}
	var cuts transport.Partitions
	nodes, cleanup := startNodes(t, "concurrent", members, clk, &cuts, 0, 25*time.Millisecond)

	advanceUntil(t, clk, "initial liveness", func() bool {
		return len(nodes[1].det.Suspects()) == 0
	})

	lastEpoch := uint64(0)
	for cycle := 0; cycle < 3; cycle++ {
		cuts.Set("cut", 5)
		advanceUntil(t, clk, fmt.Sprintf("cycle %d: member 5 expelled", cycle), func() bool {
			cur := nodes[1].mon.Current()
			return cur.Epoch > lastEpoch && !cur.Contains(5)
		})
		cuts.Heal("cut")
		advanceUntil(t, clk, fmt.Sprintf("cycle %d: member 5 readmitted", cycle), func() bool {
			cur := nodes[1].mon.Current()
			return cur.Contains(5) && nodes[5].mon.Current().Epoch == cur.Epoch
		})
		cur := nodes[1].mon.Current()
		if cur.Epoch < lastEpoch+2 {
			t.Fatalf("cycle %d: epoch %d did not advance by expel+rejoin from %d", cycle, cur.Epoch, lastEpoch)
		}
		lastEpoch = cur.Epoch
		if snap, _ := nodes[5].installed.Load().(string); snap != "snap-from-1" {
			t.Fatalf("cycle %d: snapshot %q", cycle, snap)
		}
	}
	for _, m := range members {
		if cur := nodes[m].mon.Current(); !sameMembers(cur.Members, members) {
			t.Errorf("member %d final view %v", m, cur.Members)
		}
	}

	cleanup()
	if err := leak(); err != nil {
		t.Error(err)
	}
}
