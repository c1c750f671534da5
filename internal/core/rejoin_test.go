package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/exception"
	"repro/internal/ident"
	"repro/internal/transport/conformancetest"
	"repro/internal/vclock"
)

// rejoinTree declares one app exception plus the participant-failure
// exception every membership run needs.
func rejoinTree() *exception.Tree {
	return exception.NewBuilder("omega").
		Add("exc-app", "omega").
		Add(ExcParticipantFailure, "omega").
		MustBuild()
}

func rejoinHandlers(members []ident.ObjectID) map[ident.ObjectID]HandlerSet {
	noop := HandlerSet{Default: func(*RecoveryContext, exception.Exception) (string, error) {
		return "", nil
	}}
	hs := make(map[ident.ObjectID]HandlerSet, len(members))
	for _, m := range members {
		hs[m] = noop
	}
	return hs
}

// TestRejoinAcrossRuns drives the persistent-group lifecycle on a virtual
// clock: run 1 partitions {4,5} away (expelled, failure resolved by the
// majority), run 2 admits the healed members back via petition + state
// transfer, and run 3 proves the rejoined members participate in the next
// resolution.
func TestRejoinAcrossRuns(t *testing.T) {
	leak := conformancetest.LeakCheckErr()
	clk := vclock.NewVirtual()
	clk.StartAuto()
	defer clk.StopAuto()

	sys := NewServer(Options{
		Clock: clk,
		Membership: &MembershipOptions{
			Heartbeat: time.Millisecond,
			Timeout:   25 * time.Millisecond,
			Poll:      2 * time.Millisecond,
			Rejoin:    true,
			Lease:     200 * time.Millisecond,
		},
	})
	defer sys.Close()

	members := []ident.ObjectID{1, 2, 3, 4, 5}
	tree := rejoinTree()
	handlers := rejoinHandlers(members)

	idle := func(ctx *Context) error {
		ctx.Sleep(time.Hour)
		return nil
	}

	// Run 1: member 1 cuts {4,5} away mid-run; the survivors expel them and
	// resolve the synthesized participant failure.
	bodies1 := map[ident.ObjectID]Body{2: idle, 3: idle, 4: idle, 5: idle}
	bodies1[1] = func(ctx *Context) error {
		ctx.Sleep(20 * time.Millisecond)
		if err := sys.Partition("cut", 4, 5); err != nil {
			return err
		}
		ctx.Sleep(time.Hour)
		return nil
	}
	out1, err := sys.RunTimeout(Definition{
		Spec:   ActionSpec{Name: "cut-run", Tree: tree, Members: members, Handlers: handlers},
		Bodies: bodies1,
	}, membershipDeadline)
	if err != nil {
		t.Fatalf("run 1: %v (clock: %v; outcome %+v)", err, clk, out1)
	}
	if out1.Resolved != ExcParticipantFailure {
		t.Fatalf("run 1 resolved %q, want %q", out1.Resolved, ExcParticipantFailure)
	}
	if len(out1.Expelled) != 2 || out1.Expelled[0] != 4 || out1.Expelled[1] != 5 {
		t.Fatalf("run 1 expelled %v, want [4 5]", out1.Expelled)
	}
	if v := sys.GroupView(); v.Contains(4) || v.Contains(5) {
		t.Fatalf("persistent view still contains the expelled members: %v", v)
	}

	// Run 2: heal the cut (no run is in progress). The pre-expelled members
	// petition; the survivors' bodies wait for the group to be whole again.
	sys.HealPartition("cut")
	waitWhole := func(ctx *Context) error {
		for i := 0; i < 5000; i++ {
			v := sys.GroupView()
			if v.Contains(4) && v.Contains(5) {
				return nil
			}
			ctx.Sleep(2 * time.Millisecond)
		}
		return fmt.Errorf("group never became whole: %v", sys.GroupView())
	}
	out2, err := sys.RunTimeout(Definition{
		Spec: ActionSpec{Name: "rejoin-run", Tree: tree, Members: members, Handlers: handlers},
		Bodies: map[ident.ObjectID]Body{
			1: waitWhole, 2: waitWhole, 3: waitWhole, 4: idle, 5: idle,
		},
	}, membershipDeadline)
	if err != nil {
		t.Fatalf("run 2: %v (clock: %v; outcome %+v)", err, clk, out2)
	}
	if len(out2.Rejoined) != 2 || out2.Rejoined[0] != 4 || out2.Rejoined[1] != 5 {
		t.Fatalf("run 2 rejoined %v, want [4 5]", out2.Rejoined)
	}
	for _, obj := range []ident.ObjectID{4, 5} {
		res := out2.PerObject[obj]
		if !res.Expelled || !res.Rejoined {
			t.Fatalf("run 2 member %d: expelled=%v rejoined=%v", obj, res.Expelled, res.Rejoined)
		}
		snap, ok := res.Snapshot.(GroupSnapshot)
		if !ok {
			t.Fatalf("run 2 member %d snapshot %T, want GroupSnapshot", obj, res.Snapshot)
		}
		// State transfer: the rejoiner learns the resolution it missed.
		found := false
		for _, r := range snap.Resolved {
			if r == ExcParticipantFailure {
				found = true
			}
		}
		if !found {
			t.Fatalf("run 2 member %d snapshot history %v lacks %q", obj, snap.Resolved, ExcParticipantFailure)
		}
	}

	// Run 3: the whole group again; an app exception raised now must be
	// resolved by everyone, including the rejoined members.
	raiser := func(ctx *Context) error {
		ctx.Sleep(5 * time.Millisecond)
		ctx.Raise("exc-app")
		return nil
	}
	out3, err := sys.RunTimeout(Definition{
		Spec: ActionSpec{Name: "post-heal-run", Tree: tree, Members: members, Handlers: handlers},
		Bodies: map[ident.ObjectID]Body{
			1: idle, 2: raiser, 3: idle, 4: idle, 5: idle,
		},
	}, membershipDeadline)
	if err != nil {
		t.Fatalf("run 3: %v (clock: %v; outcome %+v)", err, clk, out3)
	}
	if out3.Resolved != "exc-app" {
		t.Fatalf("run 3 resolved %q, want exc-app", out3.Resolved)
	}
	if len(out3.Expelled) != 0 {
		t.Fatalf("run 3 expelled %v, want none", out3.Expelled)
	}
	for _, obj := range []ident.ObjectID{4, 5} {
		if res := out3.PerObject[obj]; res.Resolved != "exc-app" {
			t.Fatalf("rejoined member %d did not participate in the post-heal resolution: %+v", obj, res)
		}
	}

	sys.Close()
	clk.StopAuto()
	if err := leak(); err != nil {
		t.Error(err)
	}
}

// TestRejoinChurnStress repeats expel/heal/rejoin cycles back to back,
// checking that every cycle converges and nothing leaks. Run with -race.
func TestRejoinChurnStress(t *testing.T) {
	leak := conformancetest.LeakCheckErr()
	clk := vclock.NewVirtual()
	clk.StartAuto()
	defer clk.StopAuto()

	sys := NewServer(Options{
		Clock: clk,
		Membership: &MembershipOptions{
			Heartbeat: time.Millisecond,
			Timeout:   25 * time.Millisecond,
			Poll:      2 * time.Millisecond,
			Rejoin:    true,
			Lease:     100 * time.Millisecond,
		},
	})
	defer sys.Close()

	members := []ident.ObjectID{1, 2, 3, 4, 5}
	tree := rejoinTree()
	handlers := rejoinHandlers(members)
	idle := func(ctx *Context) error {
		ctx.Sleep(time.Hour)
		return nil
	}

	cycles := 3
	for cycle := 0; cycle < cycles; cycle++ {
		cutName := fmt.Sprintf("cut-%d", cycle)
		bodies := map[ident.ObjectID]Body{2: idle, 3: idle, 4: idle, 5: idle}
		bodies[1] = func(ctx *Context) error {
			ctx.Sleep(20 * time.Millisecond)
			if err := sys.Partition(cutName, 5); err != nil {
				return err
			}
			ctx.Sleep(time.Hour)
			return nil
		}
		out, err := sys.RunTimeout(Definition{
			Spec:   ActionSpec{Name: cutName, Tree: tree, Members: members, Handlers: handlers},
			Bodies: bodies,
		}, membershipDeadline)
		if err != nil {
			t.Fatalf("cycle %d cut run: %v (clock: %v; outcome %+v)", cycle, err, clk, out)
		}
		if len(out.Expelled) != 1 || out.Expelled[0] != 5 {
			t.Fatalf("cycle %d expelled %v, want [5]", cycle, out.Expelled)
		}

		sys.HealPartition(cutName)
		waitWhole := func(ctx *Context) error {
			for i := 0; i < 5000; i++ {
				if sys.GroupView().Contains(5) {
					return nil
				}
				ctx.Sleep(2 * time.Millisecond)
			}
			return fmt.Errorf("member 5 never rejoined: %v", sys.GroupView())
		}
		out, err = sys.RunTimeout(Definition{
			Spec: ActionSpec{Name: cutName + "-rejoin", Tree: tree, Members: members, Handlers: handlers},
			Bodies: map[ident.ObjectID]Body{
				1: waitWhole, 2: waitWhole, 3: waitWhole, 4: waitWhole, 5: idle,
			},
		}, membershipDeadline)
		if err != nil {
			t.Fatalf("cycle %d rejoin run: %v (clock: %v; outcome %+v)", cycle, err, clk, out)
		}
		if len(out.Rejoined) != 1 || out.Rejoined[0] != 5 {
			t.Fatalf("cycle %d rejoined %v, want [5]", cycle, out.Rejoined)
		}
	}

	// Epochs advanced twice per cycle (expel + readmit), monotonically.
	if v := sys.GroupView(); v.Epoch < uint64(2*cycles) || len(v.Members) != len(members) {
		t.Fatalf("final view %+v, want full membership at epoch >= %d", v, 2*cycles)
	}

	sys.Close()
	clk.StopAuto()
	if err := leak(); err != nil {
		t.Error(err)
	}
}
