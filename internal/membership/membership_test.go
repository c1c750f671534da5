package membership

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/group"
	"repro/internal/ident"
	"repro/internal/netsim"
	"repro/internal/vclock"
)

type suspectorFunc func() []ident.ObjectID

func (f suspectorFunc) Suspects() []ident.ObjectID { return f() }

// sendRecorder captures the coordinator's view installations.
type sendRecorder struct {
	mu    sync.Mutex
	sends []struct {
		To   ident.ObjectID
		View View
	}
}

func (r *sendRecorder) send(to ident.ObjectID, kind string, payload any) error {
	if kind != KindView {
		return errors.New("unexpected kind")
	}
	r.mu.Lock()
	r.sends = append(r.sends, struct {
		To   ident.ObjectID
		View View
	}{to, payload.(View)})
	r.mu.Unlock()
	return nil
}

func (r *sendRecorder) snapshot() []struct {
	To   ident.ObjectID
	View View
} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]struct {
		To   ident.ObjectID
		View View
	}(nil), r.sends...)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func sameMembers(got, want []ident.ObjectID) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestMonitorCoordinatorProposesOnMajority(t *testing.T) {
	var mu sync.Mutex
	suspects := []ident.ObjectID{}
	rec := &sendRecorder{}
	var changes []viewChange
	mon := NewMonitor(Config{
		Self:    1,
		Members: []ident.ObjectID{5, 4, 3, 2, 1}, // unsorted on purpose
		Suspector: suspectorFunc(func() []ident.ObjectID {
			mu.Lock()
			defer mu.Unlock()
			return append([]ident.ObjectID(nil), suspects...)
		}),
		Send: rec.send,
		Poll: time.Millisecond,
	})
	defer mon.Stop()
	mon.Subscribe(func(old, new View) {
		mu.Lock()
		changes = append(changes, viewChange{old, new})
		mu.Unlock()
	})

	if cur := mon.Current(); cur.Epoch != 0 || !sameMembers(cur.Members, []ident.ObjectID{1, 2, 3, 4, 5}) {
		t.Fatalf("initial view = %+v", cur)
	}

	// Nothing suspected: no proposals, ever.
	time.Sleep(10 * time.Millisecond)
	if cur := mon.Current(); cur.Epoch != 0 {
		t.Fatalf("spurious view change: %+v", cur)
	}

	mu.Lock()
	suspects = []ident.ObjectID{4, 5}
	mu.Unlock()
	waitFor(t, "epoch 1 installed", func() bool { return mon.Current().Epoch == 1 })
	cur := mon.Current()
	if !sameMembers(cur.Members, []ident.ObjectID{1, 2, 3}) {
		t.Fatalf("view members = %v", cur.Members)
	}

	// The proposal reached exactly the other survivors.
	waitFor(t, "installations multicast", func() bool { return len(rec.snapshot()) >= 2 })
	sends := rec.snapshot()
	gotTo := map[ident.ObjectID]bool{}
	for _, s := range sends {
		gotTo[s.To] = true
		if s.View.Epoch != 1 || !sameMembers(s.View.Members, []ident.ObjectID{1, 2, 3}) {
			t.Fatalf("sent view = %+v", s.View)
		}
	}
	if !gotTo[2] || !gotTo[3] || gotTo[4] || gotTo[5] || gotTo[1] {
		t.Fatalf("installations sent to %v", gotTo)
	}

	// Callback fired once, from old epoch 0 to new epoch 1.
	waitFor(t, "view-change callback", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(changes) == 1
	})
	mu.Lock()
	c := changes[0]
	mu.Unlock()
	if c.old.Epoch != 0 || c.new.Epoch != 1 || !sameMembers(c.new.Members, []ident.ObjectID{1, 2, 3}) {
		t.Fatalf("change = %+v", c)
	}

	// A further shrink to {1,2} would leave 2 of 5: the base-majority gate
	// must hold the view at epoch 1 — the survivors stall rather than run a
	// minority group.
	mu.Lock()
	suspects = []ident.ObjectID{3, 4, 5}
	mu.Unlock()
	time.Sleep(10 * time.Millisecond)
	if cur := mon.Current(); cur.Epoch != 1 {
		t.Fatalf("minority view installed: %+v", cur)
	}
}

func TestMonitorFollowerAndDeliver(t *testing.T) {
	rec := &sendRecorder{}
	mon := NewMonitor(Config{
		Self:    2,
		Members: []ident.ObjectID{1, 2, 3, 4, 5},
		// O2 sees the same suspicions as the coordinator, but O1 is alive
		// and smaller: O2 must never propose.
		Suspector: suspectorFunc(func() []ident.ObjectID { return []ident.ObjectID{4, 5} }),
		Send:      rec.send,
		Poll:      time.Millisecond,
	})
	defer mon.Stop()

	time.Sleep(10 * time.Millisecond)
	if cur := mon.Current(); cur.Epoch != 0 {
		t.Fatalf("follower proposed: %+v", cur)
	}
	if sends := rec.snapshot(); len(sends) != 0 {
		t.Fatalf("follower multicast installations: %v", sends)
	}

	// The coordinator's installation arrives off the wire.
	mon.Deliver(View{Epoch: 1, Members: []ident.ObjectID{1, 2, 3}})
	if cur := mon.Current(); cur.Epoch != 1 || !sameMembers(cur.Members, []ident.ObjectID{1, 2, 3}) {
		t.Fatalf("delivered view not installed: %+v", cur)
	}

	// Stale and duplicate epochs are ignored; epochs only move forward.
	mon.Deliver(View{Epoch: 1, Members: []ident.ObjectID{1, 2}})
	mon.Deliver(View{Epoch: 0, Members: []ident.ObjectID{1, 2, 3, 4, 5}})
	if cur := mon.Current(); cur.Epoch != 1 || !sameMembers(cur.Members, []ident.ObjectID{1, 2, 3}) {
		t.Fatalf("stale delivery installed: %+v", cur)
	}

	// A view excluding self is a rival group's: ignored, the member stays in
	// degraded mode on its last view.
	mon.Deliver(View{Epoch: 2, Members: []ident.ObjectID{1, 3}})
	if cur := mon.Current(); cur.Epoch != 1 {
		t.Fatalf("self-excluding view installed: %+v", cur)
	}
}

func TestMonitorMinorityIslandStalls(t *testing.T) {
	// O1 is marooned with O5: even as the smallest surviving member it must
	// not install a 2-of-5 view.
	mon := NewMonitor(Config{
		Self:      1,
		Members:   []ident.ObjectID{1, 2, 3, 4, 5},
		Suspector: suspectorFunc(func() []ident.ObjectID { return []ident.ObjectID{2, 3, 4} }),
		Send: func(to ident.ObjectID, kind string, payload any) error {
			t.Errorf("minority island sent an installation to %s", to)
			return nil
		},
		Poll: time.Millisecond,
	})
	defer mon.Stop()
	time.Sleep(20 * time.Millisecond)
	if cur := mon.Current(); cur.Epoch != 0 {
		t.Fatalf("minority installed a view: %+v", cur)
	}
}

// TestMajorityViewOverPartition is the package's end-to-end check, wired the
// way core wires it: five members share one fabric, each runs a fed detector
// plus a monitor, and an owner goroutine per member routes heartbeats to
// Observe and view installations to Deliver. Partition {4,5} away; the
// majority installs {1,2,3}, the minority stays at epoch 0, and healing the
// partition does not bring the expelled members back.
func TestMajorityViewOverPartition(t *testing.T) {
	// Everything on a virtual clock only the test advances, the network's
	// queues included: each assertion reads a settled system.
	clk := vclock.NewVirtual()
	net := netsim.New(netsim.Config{Clock: clk})
	defer net.Close()
	dir := group.NewDirectory(net)
	members := []ident.ObjectID{1, 2, 3, 4, 5}

	type node struct {
		tr  *group.RawTransport
		det *group.Detector
		mon *Monitor
	}
	nodes := make(map[ident.ObjectID]*node, len(members))
	for _, m := range members {
		n := &node{}
		tr, err := group.BindRaw(dir, m, func(d group.Delivery) {
			switch d.Kind {
			case group.KindHeartbeat:
				n.det.Observe(d.From)
			case KindView:
				n.mon.Deliver(d.Payload.(View))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		// Nothing is delivered before the first Advance: det and mon are set
		// by then.
		n.tr = tr
		n.det = group.NewFedDetector(m, tr.Send, members, time.Millisecond, 30*time.Millisecond, clk)
		n.mon = NewMonitor(Config{
			Self:      m,
			Members:   members,
			Suspector: n.det,
			Send:      tr.Send,
			Poll:      2 * time.Millisecond,
			Clock:     clk,
		})
		nodes[m] = n
	}
	defer func() {
		for _, n := range nodes {
			n.mon.Stop()
			n.det.Stop()
			n.tr.Close()
		}
	}()

	clk.Advance(10 * time.Millisecond)
	if s := nodes[1].det.Suspects(); len(s) != 0 {
		t.Fatalf("O1 suspects %v before the cut", s)
	}

	if err := dir.Partition("storm", 4, 5); err != nil {
		t.Fatal(err)
	}
	clk.Advance(40 * time.Millisecond) // the 30ms timeout, a poll and the view's delivery
	for _, m := range []ident.ObjectID{1, 2, 3} {
		if cur := nodes[m].mon.Current(); cur.Epoch != 1 || !sameMembers(cur.Members, []ident.ObjectID{1, 2, 3}) {
			t.Fatalf("member %d holds %+v, want the majority view at epoch 1", m, cur)
		}
	}
	// The minority never moves past epoch 0.
	if cur := nodes[4].mon.Current(); cur.Epoch != 0 {
		t.Fatalf("minority member installed %+v", cur)
	}

	// Healing the partition must not resurrect the expelled members: views
	// are one-way.
	dir.HealPartition("storm")
	clk.Advance(50 * time.Millisecond)
	for _, m := range []ident.ObjectID{1, 2, 3} {
		if cur := nodes[m].mon.Current(); cur.Epoch != 1 || !sameMembers(cur.Members, []ident.ObjectID{1, 2, 3}) {
			t.Fatalf("member %d holds %+v after the heal, want the epoch-1 view", m, cur)
		}
	}
}
