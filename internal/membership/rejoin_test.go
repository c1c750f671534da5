package membership

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/group"
	"repro/internal/ident"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/transport/conformancetest"
	"repro/internal/vclock"
)

// islands is a mutable partition policy shared by every fabric flavour: a
// message crossing island boundaries is dropped at the sender, exactly like
// netsim's named partition groups but expressed as a transport.FaultPolicy so
// the same cut works identically on all four backends.
type islands struct {
	mu  sync.Mutex
	cut map[ident.ObjectID]int
}

func (i *islands) set(assign map[ident.ObjectID]int) {
	i.mu.Lock()
	i.cut = assign
	i.mu.Unlock()
}

func (i *islands) heal() { i.set(nil) }

func (i *islands) policy(from, to ident.ObjectID, _ uint64, _ transport.Message) transport.Verdict {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.cut[from] != i.cut[to] {
		return transport.Drop
	}
	return transport.Deliver
}

// memNode is one member of the rejoin harness: a fed detector plus a monitor
// fed off a per-node mailbox, over whatever fabric the flavour provides.
type memNode struct {
	self ident.ObjectID
	send func(m transport.Message) error
	mbox chan transport.Message
	det  *group.Detector
	mon  *Monitor

	installed atomic.Value // last Welcome snapshot, as string
	done      chan struct{}
}

// sendTo is the node's send function for its fed detector and monitor.
// Receptions flow through the harness mailbox.
func (n *memNode) sendTo(to ident.ObjectID, kind string, payload any) error {
	return n.send(transport.Message{From: n.self, To: to, Kind: kind, Payload: payload})
}

// membershipCodec serialises the membership-layer payloads for the TCP
// fabric, which genuinely ships bytes between listeners.
type membershipCodec struct{}

type codedMsg struct {
	T string
	D json.RawMessage
}

func (membershipCodec) Encode(v any) (any, error) {
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
		if s, oks := v.(string); oks {
			raw = []byte(s)
		} else {
			return nil, fmt.Errorf("membershipCodec: non-bytes %T", v)
		}
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
// delivery to the per-destination deliver callback. The returned send is safe
// for concurrent use on every flavour (the step-driven fabrics get a lock and
// a pump goroutine).
func buildFabric(t *testing.T, flavour string, members []ident.ObjectID, clk vclock.Clock,
	faults transport.FaultPolicy, deliver func(m transport.Message)) (func(transport.Message) error, func()) {
	t.Helper()
	switch flavour {
	case "deterministic", "randomized":
		var fab *Deterministic
		opts := transport.Options{Faults: faults}
		var det *transport.Deterministic
		if flavour == "deterministic" {
			det = transport.NewDeterministic(opts)
		} else {
			det = transport.NewRandomized(7, opts).Deterministic
		}
		_ = fab
		for _, m := range members {
			det.Register(m, deliver)
		}
		var mu sync.Mutex
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				progressed := det.Step()
				mu.Unlock()
				if !progressed {
					time.Sleep(50 * time.Microsecond)
				}
			}
		}()
		send := func(m transport.Message) error {
			mu.Lock()
			defer mu.Unlock()
			return det.Send(m)
		}
		cleanup := func() {
			close(stop)
			<-done
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
		for _, m := range members {
			fab, err := transport.NewTCP(transport.TCPOptions{
				Codec:  membershipCodec{},
				Faults: faults,
				Clock:  clk,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fab.BindFunc(m, deliver, nil); err != nil {
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
		send := func(m transport.Message) error { return fabs[m.From].Send(m) }
		return send, func() {
			for _, fab := range fabs {
				_ = fab.Close()
			}
		}
	}
	t.Fatalf("unknown fabric flavour %q", flavour)
	return nil, nil
}

// Deterministic is aliased so the deterministic/randomized arm above can hold
// either in one variable without exporting new surface.
type Deterministic = transport.Deterministic

// startNodes spins up the full membership stack — fed detector, monitor with
// rejoin + leases, mailbox consumer — for every member on the given fabric.
func startNodes(t *testing.T, flavour string, members []ident.ObjectID, clk vclock.Clock,
	isl *islands, lease, timeout time.Duration) (map[ident.ObjectID]*memNode, func()) {
	t.Helper()
	nodes := make(map[ident.ObjectID]*memNode, len(members))
	deliver := func(m transport.Message) {
		n := nodes[m.To]
		if n == nil {
			return
		}
		select {
		case n.mbox <- m:
		default: // overflow behaves like network loss; heartbeats tolerate it
		}
	}
	send, cleanupFabric := buildFabric(t, flavour, members, clk, isl.policy, deliver)
	// Two passes: the map must be fully populated before any detector or
	// monitor starts, because the first heartbeat can reach deliver (and read
	// nodes[m.To]) while later members are still being inserted.
	for _, m := range members {
		nodes[m] = &memNode{
			self: m,
			send: send,
			mbox: make(chan transport.Message, 1<<14),
			done: make(chan struct{}),
		}
	}
	for _, m := range members {
		n := nodes[m]
		n.det = group.NewFedDetector(m, n.sendTo, members, time.Millisecond, timeout, clk)
		self := m
		n.mon = NewMonitor(Config{
			Self:      m,
			Members:   members,
			Suspector: n.det,
			Send:      n.sendTo,
			Poll:      2 * time.Millisecond,
			Clock:     clk,
			Rejoin:    true,
			Lease:     lease,
			Snapshot:  func() any { return fmt.Sprintf("snap-from-%d", self) },
			Install:   func(snap any) { n.installed.Store(fmt.Sprint(snap)) },
		})
	}
	// Consumers start after every node exists so cross-deliveries route.
	for _, n := range nodes {
		n := n
		go func() {
			defer close(n.done)
			for m := range n.mbox {
				if m.Kind == group.KindHeartbeat {
					n.det.Observe(m.From)
					continue
				}
				if n.mon.DeliverMessage(m.From, m.Kind, m.Payload) {
					continue
				}
			}
		}()
	}
	cleanup := func() {
		for _, n := range nodes {
			n.mon.Stop()
			n.det.Stop()
		}
		cleanupFabric()
		for _, n := range nodes {
			close(n.mbox)
			<-n.done
		}
	}
	return nodes, cleanup
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
			clk := vclock.NewVirtual()
			// TCP ships real bytes through real sockets, which the virtual
			// clock cannot see: give it a coarser auto-advance grace and a
			// longer timeout so in-flight frames are not outrun.
			grace, timeout := time.Duration(0), 25*time.Millisecond
			if flavour == "tcp" {
				grace, timeout = time.Millisecond, 100*time.Millisecond
			}
			clk.StartAuto(grace)
			defer clk.StopAuto()

			members := []ident.ObjectID{1, 2, 3, 4, 5}
			isl := &islands{}
			nodes, cleanup := startNodes(t, flavour, members, clk, isl, 50*time.Millisecond, timeout)

			waitFor(t, "initial liveness", func() bool {
				return len(nodes[1].det.Alive()) == 4 && len(nodes[4].det.Alive()) == 4
			})

			isl.set(map[ident.ObjectID]int{4: 1, 5: 1})
			for _, m := range []ident.ObjectID{1, 2, 3} {
				m := m
				waitFor(t, fmt.Sprintf("%s: majority view on %d", flavour, m), func() bool {
					cur := nodes[m].mon.Current()
					return cur.Epoch >= 1 && sameMembers(cur.Members, []ident.ObjectID{1, 2, 3})
				})
			}
			waitFor(t, "cut members detect isolation", func() bool {
				return nodes[4].mon.Isolated() && nodes[5].mon.Isolated()
			})

			isl.heal()
			// Convergence is one polled condition: every member reports the
			// same epoch, the full membership, and no lingering isolation.
			// (Point-in-time reads would race transient suspicion flaps that
			// the rejoin protocol heals on its own.)
			waitFor(t, flavour+": all members converge on the full view", func() bool {
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
			clk.StopAuto()
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
	clk.StartAuto(0)
	defer clk.StopAuto()

	const lease = 500 * time.Millisecond // virtual; dwarfs poll and timeout
	members := []ident.ObjectID{1, 2, 3, 4, 5}
	isl := &islands{}
	nodes, cleanup := startNodes(t, "concurrent", members, clk, isl, lease, 25*time.Millisecond)

	waitFor(t, "initial liveness", func() bool {
		return len(nodes[1].det.Alive()) == 4
	})
	// Let the coordinator acquire (and start renewing) the quorum lease.
	waitFor(t, "coordinator holds lease", func() bool { return nodes[1].mon.HoldsLease() })

	cutAt := clk.Now()
	isl.set(map[ident.ObjectID]int{1: 1})

	waitFor(t, "new majority view without the old coordinator", func() bool {
		cur := nodes[2].mon.Current()
		return cur.Epoch == 1 && sameMembers(cur.Members, []ident.ObjectID{2, 3, 4, 5})
	})
	electedAt := clk.Now()

	// The election could not have happened while the stale lease stood: the
	// grantors' promises ran until at least cutAt + lease - poll (the last
	// renewal was at most one poll before the cut).
	if waited := electedAt.Sub(cutAt); waited < lease-10*time.Millisecond {
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
	waitFor(t, "virtual time passes in the minority island", func() bool {
		return clk.Now().Sub(electedAt) > 2*lease
	})
	if cur := nodes[1].mon.Current(); cur.Epoch != 0 {
		t.Errorf("stale coordinator eventually installed epoch %d", cur.Epoch)
	}

	cleanup()
	clk.StopAuto()
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
	clk.StartAuto(0)
	defer clk.StopAuto()

	members := []ident.ObjectID{1, 2, 3, 4, 5}
	isl := &islands{}
	nodes, cleanup := startNodes(t, "concurrent", members, clk, isl, 0, 25*time.Millisecond)

	waitFor(t, "initial liveness", func() bool {
		return len(nodes[1].det.Alive()) == 4
	})

	lastEpoch := uint64(0)
	for cycle := 0; cycle < 3; cycle++ {
		isl.set(map[ident.ObjectID]int{5: 1})
		waitFor(t, fmt.Sprintf("cycle %d: member 5 expelled", cycle), func() bool {
			cur := nodes[1].mon.Current()
			return cur.Epoch > lastEpoch && !cur.Contains(5)
		})
		isl.heal()
		waitFor(t, fmt.Sprintf("cycle %d: member 5 readmitted", cycle), func() bool {
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
	clk.StopAuto()
	if err := leak(); err != nil {
		t.Error(err)
	}
}
