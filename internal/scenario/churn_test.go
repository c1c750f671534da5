package scenario

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
)

func TestChurnSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec ChurnSpec
		ok   bool
	}{
		{"default victims", ChurnSpec{N: 5, Cycles: 1}, true},
		{"explicit victims", ChurnSpec{N: 5, Cycles: 2, Victims: []int{4, 5}}, true},
		{"too small", ChurnSpec{N: 2, Cycles: 1}, false},
		{"no cycles", ChurnSpec{N: 5}, false},
		{"victim out of range", ChurnSpec{N: 5, Cycles: 1, Victims: []int{6}}, false},
		{"victim twice", ChurnSpec{N: 5, Cycles: 1, Victims: []int{4, 4}}, false},
		{"no majority left", ChurnSpec{N: 4, Cycles: 1, Victims: []int{3, 4}}, false},
		{"negative lease", ChurnSpec{N: 5, Cycles: 1, Lease: -1}, false},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: error expected", c.name)
		}
	}
}

// TestRunChurnVirtual runs the whole partition/heal/rejoin lifecycle on the
// virtual clock with the default victim (the biggest object): every cycle
// must expel and readmit it, and the rejoined member must take part in the
// final whole-group resolution.
func TestRunChurnVirtual(t *testing.T) {
	for _, cycles := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("cycles=%d", cycles), func(t *testing.T) {
			res, err := RunChurn(ChurnSpec{
				N:       5,
				Cycles:  cycles,
				Lease:   200 * time.Millisecond,
				Virtual: true,
				Timeout: 20 * time.Second,
			})
			if err != nil {
				t.Fatalf("RunChurn: %v (result %+v)", err, res)
			}
			if res.Cycles != cycles || res.Expelled != cycles || res.Rejoined != cycles {
				t.Fatalf("cycles=%d expelled=%d rejoined=%d, want %d each",
					res.Cycles, res.Expelled, res.Rejoined, cycles)
			}
			if res.FinalEpoch < uint64(2*cycles) {
				t.Fatalf("final epoch %d, want >= %d (two view changes per cycle)", res.FinalEpoch, 2*cycles)
			}
			if res.PostHealResolved != "exc-churn" || res.PostHealParticipants != 1 {
				t.Fatalf("post-heal resolved %q with %d rejoined participants, want exc-churn/1",
					res.PostHealResolved, res.PostHealParticipants)
			}
		})
	}
}

// TestRunVirtualPartition checks Spec.Virtual end to end: a membership run
// whose 25ms detector timeout and hour-long idle bodies complete in virtual
// time, with the same expulsion outcome as the real-clock partition tests
// (TestPartitionCrashOnly's quiet group, TestPartitionStorm's raiser).
func TestRunVirtualPartition(t *testing.T) {
	cases := []struct {
		name     string
		spec     Spec
		resolved []string
	}{
		{
			name:     "nobody raises",
			spec:     Spec{N: 5, P: 0},
			resolved: []string{core.ExcParticipantFailure},
		},
		{
			// The raise lands after the cut and before the detector matures;
			// see TestPartitionStorm for why either resolution is right.
			name:     "raise stalls on the island",
			spec:     Spec{N: 5, P: 1, RaiseDelay: 30 * time.Millisecond},
			resolved: []string{"omega", core.ExcParticipantFailure},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			spec.Membership = true
			spec.Partition = []int{4, 5}
			spec.Virtual = true
			spec.Timeout = 20 * time.Second
			start := time.Now()
			res, err := Run(spec)
			if err != nil {
				t.Fatalf("Run: %v (outcome %+v)", err, res.Outcome)
			}
			if !slices.Contains(tc.resolved, res.Outcome.Resolved) {
				t.Fatalf("resolved %q, want one of %q", res.Outcome.Resolved, tc.resolved)
			}
			if len(res.Outcome.Expelled) != 2 {
				t.Fatalf("expelled %v, want two members", res.Outcome.Expelled)
			}
			if !res.Outcome.Completed {
				t.Fatalf("outcome not completed: %+v", res.Outcome)
			}
			// Not a tight bound — just proof the hour-long sleeps didn't run
			// on the wall clock.
			if real := time.Since(start); real > 20*time.Second {
				t.Fatalf("virtual run took %v of wall clock", real)
			}
		})
	}
}

func TestRunVirtualRejectsTCP(t *testing.T) {
	_, err := Run(Spec{N: 3, P: 1, Virtual: true, Transport: core.TransportTCP})
	if err == nil {
		t.Fatal("Virtual+TCP accepted, want validation error")
	}
}
