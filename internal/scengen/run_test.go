package scengen

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/protocol"
)

// mustGrid builds a §4.4 grid with the abort policy or fails the test.
func mustGrid(t *testing.T, n, p, q, depth int, raiseDelay time.Duration) *Program {
	t.Helper()
	prog, err := Grid(n, p, q, depth, raiseDelay, false)
	if err != nil {
		t.Fatalf("Grid(%d, %d, %d, %d, %v): %v", n, p, q, depth, raiseDelay, err)
	}
	return prog
}

// mustCut adds a partition to a program or fails the test.
func mustCut(t *testing.T, prog *Program, cut ...int) *Program {
	t.Helper()
	prog, err := Partitioned(prog, cut, 0)
	if err != nil {
		t.Fatalf("Partitioned(%v): %v", cut, err)
	}
	return prog
}

func TestRunSingleRaiser(t *testing.T) {
	res, err := Run(mustGrid(t, 4, 1, 0, 0, 0), Config{Timeout: 20 * time.Second})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if out := res.Outcomes[0]; !out.Completed || out.Resolved == "" {
		t.Fatalf("outcome = %+v", out)
	}
	if res.ObservedP != 1 || res.ObservedQ != 0 {
		t.Errorf("observed P=%d Q=%d, want 1, 0", res.ObservedP, res.ObservedQ)
	}
	// §4.4 case 1: exactly 3(N-1) = 9 messages.
	if res.Total != 9 || res.Predicted != 9 {
		t.Errorf("total = %d, predicted = %d, want 9 (%v)", res.Total, res.Predicted, res.Census)
	}
}

func TestRunMatchesFormulaAcrossGrid(t *testing.T) {
	for _, g := range []struct {
		n, p, q, depth int
		delay          time.Duration
	}{
		{2, 1, 0, 0, 0},
		{4, 2, 0, 0, 0},
		{4, 1, 2, 1, 20 * time.Millisecond},
		{5, 1, 3, 2, 20 * time.Millisecond},
		{6, 3, 2, 1, 20 * time.Millisecond},
	} {
		res, err := Run(mustGrid(t, g.n, g.p, g.q, g.depth, g.delay), Config{Timeout: 20 * time.Second})
		if err != nil {
			t.Fatalf("run %+v: %v", g, err)
		}
		if !res.Outcomes[0].Completed {
			t.Fatalf("outcome for %+v = %+v", g, res.Outcomes[0])
		}
		if res.Total != res.Predicted {
			t.Errorf("grid %+v: total %d != predicted %d (P=%d Q=%d census=%v)",
				g, res.Total, res.Predicted, res.ObservedP, res.ObservedQ, res.Census)
		}
		// The observed Q must equal the requested Q: nested objects had
		// time to enter their actions before the raise.
		if g.q > 0 && res.ObservedQ != g.q {
			t.Errorf("grid %+v: observed Q = %d", g, res.ObservedQ)
		}
		// At least one raise always survives.
		if res.ObservedP < 1 || res.ObservedP > g.p {
			t.Errorf("grid %+v: observed P = %d", g, res.ObservedP)
		}
	}
}

func TestRunWithNetworkLatency(t *testing.T) {
	res, err := Run(mustGrid(t, 3, 1, 0, 0, 0), Config{Latency: 2 * time.Millisecond, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Outcomes[0].Completed {
		t.Fatalf("outcome = %+v", res.Outcomes[0])
	}
	// Resolution needs at least two message rounds (Exception+ACK, Commit).
	if res.Elapsed < 4*time.Millisecond {
		t.Errorf("elapsed = %v, implausibly fast for 2ms one-way latency", res.Elapsed)
	}
	if res.Total != protocol.PredictMessages(3, 1, 0) {
		t.Errorf("total = %d", res.Total)
	}
}

func TestRunNoExceptionZeroOverhead(t *testing.T) {
	prog, err := NoException(5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, Config{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Outcomes[0].Completed {
		t.Fatalf("outcome = %+v", res.Outcomes[0])
	}
	if res.Total != 0 {
		t.Errorf("protocol messages = %d, want 0 (%v)", res.Total, res.Census)
	}
}

func TestRunWaitPolicyCompletesWithoutBelated(t *testing.T) {
	// Without belated participants the wait policy also terminates: nothing
	// is nested, so resolution runs at once.
	prog, err := Grid(3, 1, 0, 0, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, Config{Timeout: 20 * time.Second})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Outcomes[0].Completed {
		t.Fatalf("outcome = %+v", res.Outcomes[0])
	}
}

// TestPartitionStorm cuts the {O4, O5} island away while O1's resolution is
// already under way (the raise fires after the cut but before the detector
// matures, so the Exception multicast stalls waiting for ACKs the island will
// never send). Expelling the island must release the stall, fold the
// participant failures into the resolution, and let the majority commit.
func TestPartitionStorm(t *testing.T) {
	res, err := Run(mustCut(t, mustGrid(t, 5, 1, 0, 0, 30*time.Millisecond), 4, 5), Config{Timeout: 20 * time.Second})
	out := res.Outcomes[0]
	if err != nil {
		t.Fatalf("run: %v (outcome %+v)", err, out)
	}
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
	res, err := Run(mustCut(t, mustGrid(t, 3, 0, 0, 0, 0), 3), Config{Timeout: 20 * time.Second})
	out := res.Outcomes[0]
	if err != nil {
		t.Fatalf("run: %v (outcome %+v)", err, out)
	}
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

// TestRunVirtualPartition checks Config.Virtual end to end: a membership run
// whose 25ms detector timeout and hour-long idle bodies complete in virtual
// time, with the same expulsion outcome as the real-clock partition tests
// (TestPartitionCrashOnly's quiet group, TestPartitionStorm's raiser).
func TestRunVirtualPartition(t *testing.T) {
	cases := []struct {
		name     string
		p        int
		delay    time.Duration
		resolved []string
	}{
		{name: "nobody raises", resolved: []string{core.ExcParticipantFailure}},
		// The raise lands after the cut and before the detector matures; see
		// TestPartitionStorm for why either resolution is right.
		{name: "raise stalls on the island", p: 1, delay: 30 * time.Millisecond,
			resolved: []string{"omega", core.ExcParticipantFailure}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			prog := mustCut(t, mustGrid(t, 5, tc.p, 0, 0, tc.delay), 4, 5)
			res, err := Run(prog, Config{Virtual: true, Timeout: 20 * time.Second})
			out := res.Outcomes[0]
			if err != nil {
				t.Fatalf("Run: %v (outcome %+v)", err, out)
			}
			if !slices.Contains(tc.resolved, out.Resolved) {
				t.Fatalf("resolved %q, want one of %q", out.Resolved, tc.resolved)
			}
			if len(out.Expelled) != 2 {
				t.Fatalf("expelled %v, want two members", out.Expelled)
			}
			if !out.Completed {
				t.Fatalf("outcome not completed: %+v", out)
			}
			// Not a tight bound — just proof the hour-long sleeps didn't run
			// on the wall clock.
			if real := time.Since(start); real > 20*time.Second {
				t.Fatalf("virtual run took %v of wall clock", real)
			}
		})
	}
}

// TestRunChurnVirtual runs the whole partition/heal/rejoin lifecycle on the
// virtual clock with the default victim (the biggest object): every cycle
// must expel and readmit it, and the rejoined member must take part in the
// final whole-group resolution.
func TestRunChurnVirtual(t *testing.T) {
	for _, cycles := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("cycles=%d", cycles), func(t *testing.T) {
			prog, err := Churn(5, nil, cycles)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(prog, Config{Virtual: true, Timeout: 20 * time.Second})
			if err != nil {
				t.Fatalf("Run: %v (result %+v)", err, res)
			}
			expelled, rejoined := 0, 0
			for i, c := range res.Cycles {
				if c.Cut.Resolved != core.ExcParticipantFailure {
					t.Errorf("cycle %d cut run resolved %q, want %q", i, c.Cut.Resolved, core.ExcParticipantFailure)
				}
				expelled += len(c.Cut.Expelled)
				rejoined += len(c.Rejoin.Rejoined)
			}
			if len(res.Cycles) != cycles || expelled != cycles || rejoined != cycles {
				t.Fatalf("cycles=%d expelled=%d rejoined=%d, want %d each",
					len(res.Cycles), expelled, rejoined, cycles)
			}
			if res.FinalEpoch < uint64(2*cycles) {
				t.Fatalf("final epoch %d, want >= %d (two view changes per cycle)", res.FinalEpoch, 2*cycles)
			}
			out := res.Outcomes[0]
			if out.Resolved != "exc-churn" || out.PerObject[5].Resolved != "exc-churn" {
				t.Fatalf("post-heal resolved %q, victim O5 %q, want exc-churn for both",
					out.Resolved, out.PerObject[5].Resolved)
			}
		})
	}
}

func TestRunVirtualRejectsTCP(t *testing.T) {
	_, err := Run(mustGrid(t, 3, 1, 0, 0, 0), Config{Virtual: true, Transport: core.TransportTCP})
	if err == nil {
		t.Fatal("Virtual+TCP accepted, want validation error")
	}
}

func TestRunAbortionCostDelaysResolution(t *testing.T) {
	prog := mustGrid(t, 2, 1, 1, 2, 10*time.Millisecond)
	fast := run(prog, Config{}, []int{0}, coreTiming{forever: true})
	slow := run(prog, Config{}, []int{0}, coreTiming{forever: true, abortCost: 20 * time.Millisecond})
	for _, res := range []Result{fast, slow} {
		if res.Errs[0] != nil || !res.Outcomes[0].Completed {
			t.Fatalf("outcome %+v, error %v", res.Outcomes[0], res.Errs[0])
		}
	}
	// Two nested levels at 20ms each: the slow run must be at least ~40ms
	// slower than the fast one.
	if delta := slow.Elapsed - fast.Elapsed; delta < 35*time.Millisecond {
		t.Errorf("abortion cost not reflected: delta = %v", delta)
	}
}

// TestRunAbortionCostOnVirtualClock checks that abortion handlers work on the
// run's clock: on the virtual clock every nested level the raise aborts adds
// its handlers' cost to the virtual time the run takes. The levels abort one
// after another, the members side by side.
func TestRunAbortionCostOnVirtualClock(t *testing.T) {
	elapsed := func(depth int) time.Duration {
		res, err := Run(mustGrid(t, 3, 1, 2, depth, 10*time.Millisecond), Config{Virtual: true})
		if err != nil || !res.Outcomes[0].Completed {
			t.Fatalf("depth %d: outcome %+v, error %v", depth, res.Outcomes[0], err)
		}
		return res.VirtualElapsed
	}
	base := elapsed(1)
	for _, depth := range []int{2, 4, 16} {
		if got, want := elapsed(depth)-base, time.Duration(depth-1)*presetTiming.abortCost; got != want {
			t.Errorf("depth %d took %v more virtual time than depth 1, want %v", depth, got, want)
		}
	}
}

// inputCase is one row of a table of preset inputs: give builds (and, for a
// Config, runs) a program and returns the error it met.
type inputCase struct {
	name    string
	give    func() error
	wantErr string // substring; empty = must pass
}

// checkInputs runs a table of preset inputs: caasim hands the constructors
// and Run command-line input, so bad input must become a clean error, not a
// wedged run.
func checkInputs(t *testing.T, cases []inputCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.give()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("got %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("got %v, want an error containing %q", err, tc.wantErr)
			}
		})
	}
}

// gridInput builds a Grid preset.
func gridInput(n, p, q, depth int, delay time.Duration) func() error {
	return func() error {
		_, err := Grid(n, p, q, depth, delay, false)
		return err
	}
}

// cutInput builds a single-raiser Grid of n with the objs cut away.
func cutInput(n int, objs []int, delay time.Duration) func() error {
	return func() error {
		prog, err := Grid(n, 1, 0, 0, 0, false)
		if err == nil {
			_, err = Partitioned(prog, objs, delay)
		}
		return err
	}
}

// churnInput builds a Churn preset.
func churnInput(n int, victims []int, cycles int) func() error {
	return func() error {
		_, err := Churn(n, victims, cycles)
		return err
	}
}

// configInput runs a single-raiser Grid of 5, with objs cut away if any, on
// the server c describes.
func configInput(c Config, objs ...int) func() error {
	return func() error {
		prog, err := Grid(5, 1, 0, 0, 0, false)
		if err == nil && objs != nil {
			prog, err = Partitioned(prog, objs, 0)
		}
		if err == nil {
			_, err = Run(prog, c)
		}
		return err
	}
}

// TestSpecValidate is the table of grid, partition and server inputs the
// presets and Run must reject (and a few they must accept).
func TestSpecValidate(t *testing.T) {
	checkInputs(t, []inputCase{
		{"minimal", gridInput(1, 0, 0, 0, 0), ""},
		{"typical", gridInput(3, 1, 0, 0, 0), ""},
		{"nested", gridInput(5, 1, 2, 2, 0), ""},
		{"raise delay beyond the oracle's", gridInput(3, 1, 0, 0, 80*time.Millisecond), ""},
		{"partition", cutInput(5, []int{4, 5}, 0), ""},

		{"zero objects", gridInput(0, 0, 0, 0, 0), "N must be >= 1"},
		{"negative objects", gridInput(-2, 0, 0, 0, 0), "N must be >= 1"},
		{"negative raisers", gridInput(3, -1, 0, 0, 0), "P must be in [0, N]"},
		{"raisers exceed objects", gridInput(3, 4, 0, 0, 0), "P must be in [0, N]"},
		{"negative nested", gridInput(3, 1, -1, 0, 0), "P+Q must be <= N"},
		{"nested exceed objects", gridInput(3, 2, 2, 1, 0), "P+Q must be <= N"},
		{"nested without depth", gridInput(3, 1, 1, 0, 0), "Depth must be >= 1"},
		{"negative depth", gridInput(3, 1, 0, -1, 0), "Depth must not be negative"},
		{"negative raise delay", gridInput(3, 1, 0, 0, -time.Millisecond), "raise delay must not be negative"},
		{"negative latency", configInput(Config{Latency: -time.Second}), "Latency must not be negative"},
		{"negative timeout", configInput(Config{Timeout: -time.Second}), "Timeout must not be negative"},
		{"negative partition delay", cutInput(5, []int{5}, -1), "partition delay must not be negative"},
		{"partition object out of range", cutInput(5, []int{6}, 0), "not a family member"},
		{"partition object duplicated", cutInput(5, []int{4, 4}, 0), "listed twice"},
		{"partition eats majority", cutInput(4, []int{3, 4}, 0), "strict majority"},
		{"membership over tcp", configInput(Config{Transport: core.TransportTCP}, 4, 5), "TransportTCP"},
	})
}

// TestPartitionSpecValidate is the table of partition inputs: the cut must
// name distinct family members and leave a strict majority, and membership
// runs only on the simulated network.
func TestPartitionSpecValidate(t *testing.T) {
	checkInputs(t, []inputCase{
		{"partition ok", cutInput(5, []int{4, 5}, 0), ""},
		{"partition out of range", cutInput(3, []int{4}, 0), "not a family member"},
		{"partition duplicate", cutInput(5, []int{4, 4}, 0), "listed twice"},
		{"partition no majority", cutInput(4, []int{3, 4}, 0), "strict majority"},
		{"membership over tcp", configInput(Config{Transport: core.TransportTCP}, 4, 5), "TransportTCP"},
	})
}

// TestChurnSpecValidate is the table of churn inputs.
func TestChurnSpecValidate(t *testing.T) {
	checkInputs(t, []inputCase{
		{"default victims", churnInput(5, nil, 1), ""},
		{"explicit victims", churnInput(5, []int{4, 5}, 2), ""},
		{"beyond the oracle's flaps", churnInput(5, nil, 5), ""},

		{"too small", churnInput(2, nil, 1), "N >= 3"},
		{"no cycles", churnInput(5, nil, 0), "at least one cycle"},
		{"victim out of range", churnInput(5, []int{6}, 1), "not a family member"},
		{"victim twice", churnInput(5, []int{4, 4}, 1), "listed twice"},
		{"no majority left", churnInput(4, []int{3, 4}, 1), "strict majority"},
	})
}

// TestMembershipEquivalence: membership is on exactly when a program has a
// partition, so a partition whose cut never lands (it is due an hour in, and
// the run resolves long before) is a monitored run without a partition. It
// must be indistinguishable from the unmonitored run — same outcome and the
// exact same protocol-message census (the membership traffic rides the
// fabric but never enters the engines, and the degraded-mode branches stay
// untaken).
func TestMembershipEquivalence(t *testing.T) {
	c := Config{Virtual: true, Timeout: 20 * time.Second}
	seed, err := Run(mustGrid(t, 4, 1, 2, 1, 20*time.Millisecond), c)
	if err != nil {
		t.Fatalf("seed run: %v", err)
	}
	prog, err := Partitioned(mustGrid(t, 4, 1, 2, 1, 20*time.Millisecond), []int{4}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := Run(prog, c)
	if err != nil {
		t.Fatalf("monitored run: %v (outcome %+v)", err, mon.Outcomes[0])
	}
	if len(mon.Outcomes[0].Expelled) != 0 {
		t.Fatalf("spurious expulsions: %v", mon.Outcomes[0].Expelled)
	}
	if !reflect.DeepEqual(seed.Outcomes, mon.Outcomes) {
		t.Errorf("outcomes diverge:\nseed      %+v\nmonitored %+v", seed.Outcomes, mon.Outcomes)
	}
	if !reflect.DeepEqual(seed.Census, mon.Census) {
		t.Errorf("censuses diverge:\nseed      %v\nmonitored %v", seed.Census, mon.Census)
	}
}

// TestPresetsPassOracle puts the hand-written §4.4 shapes under the
// differential oracle that checks the generated programs: a nested grid, a
// storm, a partition and a churn schedule.
func TestPresetsPassOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("four oracle runs are seconds-long; skipped in -short")
	}
	partition := mustCut(t, mustGrid(t, 5, 1, 0, 0, 0), 4, 5)
	churn, err := Churn(5, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		prog *Program
	}{
		{"grid {4,1,2,1}", mustGrid(t, 4, 1, 2, 1, 0)},
		{"storm {6,3,0}", mustGrid(t, 6, 3, 0, 0, 0)},
		{"partition", partition},
		{"churn", churn},
	} {
		if rep := Check(tc.prog, Options{}); rep.Failed() {
			t.Errorf("%s diverges:\n%s", tc.name, rep)
		}
	}
}
