package scenario

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
)

func TestPartitionSpecValidate(t *testing.T) {
	tests := []struct {
		name  string
		give  Spec
		isErr bool
	}{
		{name: "partition ok", give: Spec{N: 5, Membership: true, Partition: []int{4, 5}}},
		{name: "partition without membership", give: Spec{N: 5, Partition: []int{4}}, isErr: true},
		{name: "partition out of range", give: Spec{N: 3, Membership: true, Partition: []int{4}}, isErr: true},
		{name: "partition duplicate", give: Spec{N: 5, Membership: true, Partition: []int{4, 4}}, isErr: true},
		{name: "partition no majority", give: Spec{N: 4, Membership: true, Partition: []int{3, 4}}, isErr: true},
		{name: "membership over tcp", give: Spec{N: 3, Membership: true, Transport: core.TransportTCP}, isErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.give.Validate()
			if (err != nil) != tt.isErr {
				t.Errorf("Validate(%+v) = %v", tt.give, err)
			}
		})
	}
}

// TestPartitionStorm cuts the {O4, O5} island away while O1's resolution is
// already under way (the raise fires after the cut but before the detector
// matures, so the Exception multicast stalls waiting for ACKs the island will
// never send). Expelling the island must release the stall, fold the
// participant failures into the resolution, and let the majority commit.
func TestPartitionStorm(t *testing.T) {
	res, err := Run(Spec{
		N:          5,
		P:          1,
		RaiseDelay: 30 * time.Millisecond,
		Membership: true,
		Partition:  []int{4, 5},
		Timeout:    20 * time.Second,
	})
	if err != nil {
		t.Fatalf("run: %v (outcome %+v)", err, res.Outcome)
	}
	out := res.Outcome
	if !slices.Equal(out.Expelled, []ident.ObjectID{4, 5}) {
		t.Fatalf("expelled = %v, want [4 5]", out.Expelled)
	}
	// O1's exc1 and the island's participant failures meet in one resolution:
	// their least common ancestor is the root. Under heavy scheduling skew the
	// raise can land after the failure-only resolution committed, in which
	// case the committed resolution is the failure exception itself — either
	// way it covers the participant failure.
	if out.Resolved != "omega" && out.Resolved != core.ExcParticipantFailure {
		t.Errorf("resolved = %q, want omega or %q", out.Resolved, core.ExcParticipantFailure)
	}
	if !out.Completed {
		t.Errorf("outcome not completed: %+v", out)
	}
	for _, obj := range []ident.ObjectID{4, 5} {
		if !out.PerObject[obj].Expelled {
			t.Errorf("%s not marked expelled: %+v", obj, out.PerObject[obj])
		}
	}
}

// TestPartitionCrashOnly: nobody raises; the only exception in the run is the
// synthesized participant failure, resolved by the degraded chooser.
func TestPartitionCrashOnly(t *testing.T) {
	res, err := Run(Spec{
		N:          3,
		Membership: true,
		Partition:  []int{3},
		Timeout:    20 * time.Second,
	})
	if err != nil {
		t.Fatalf("run: %v (outcome %+v)", err, res.Outcome)
	}
	out := res.Outcome
	if out.Resolved != core.ExcParticipantFailure {
		t.Errorf("resolved = %q, want %q", out.Resolved, core.ExcParticipantFailure)
	}
	if !slices.Equal(out.Expelled, []ident.ObjectID{3}) {
		t.Errorf("expelled = %v, want [3]", out.Expelled)
	}
	if !out.Completed {
		t.Errorf("outcome not completed: %+v", out)
	}
}

// TestMembershipEquivalence: without a partition, a Monitor-enabled run must
// be indistinguishable from the seed — same outcome and the exact same
// protocol-message census (the membership traffic rides the fabric but never
// enters the engines, and the degraded-mode branches stay untaken).
func TestMembershipEquivalence(t *testing.T) {
	base := Spec{
		N: 4, P: 1, Q: 2, Depth: 1,
		RaiseDelay: 20 * time.Millisecond,
		Timeout:    20 * time.Second,
	}
	seed, err := Run(base)
	if err != nil {
		t.Fatalf("seed run: %v", err)
	}
	withMon := base
	withMon.Membership = true
	mon, err := Run(withMon)
	if err != nil {
		t.Fatalf("monitored run: %v (outcome %+v)", err, mon.Outcome)
	}
	if len(mon.Outcome.Expelled) != 0 {
		t.Fatalf("spurious expulsions: %v", mon.Outcome.Expelled)
	}
	if !reflect.DeepEqual(seed.Outcome, mon.Outcome) {
		t.Errorf("outcomes diverge:\nseed      %+v\nmonitored %+v", seed.Outcome, mon.Outcome)
	}
	if !reflect.DeepEqual(seed.Census, mon.Census) {
		t.Errorf("censuses diverge:\nseed      %v\nmonitored %v", seed.Census, mon.Census)
	}
}
