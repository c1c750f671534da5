package bench

import (
	"fmt"
	"time"

	"repro/internal/crbaseline"
	"repro/internal/exception"
	"repro/internal/ident"
	"repro/internal/protocol"
	"repro/internal/scenario"
)

// Default returns the standard suite: the storm N-sweep (§4.4 case 3, all N
// raise), the nesting-depth sweep, the New-vs-Campbell–Randell comparison
// (E5's domino scenario), full-stack concurrent runs, and the atomic-object
// contention sweep (strict 2PL vs
// the commutativity fast path on shared hot counters; the Msgs column is
// the wait-die abort count).
func Default() []Scenario {
	var out []Scenario
	for _, n := range []int{8, 16, 32, 64} {
		n := n
		out = append(out, Scenario{
			Name: fmt.Sprintf("protocol/storm/N=%d", n),
			Run:  func() (int, error) { return protocolCase(n, n, 0, 1) },
		})
	}
	for _, d := range []int{1, 2, 4, 8} {
		d := d
		out = append(out, Scenario{
			Name: fmt.Sprintf("protocol/nesting/depth=%d", d),
			Run:  func() (int, error) { return protocolCase(4, 1, 2, d) },
		})
	}
	for _, n := range []int{4, 8, 16, 32} {
		n := n
		out = append(out,
			Scenario{
				Name: fmt.Sprintf("newvscr/new/N=%d", n),
				Run:  func() (int, error) { return protocolCase(n, 1, 0, 1) },
			},
			Scenario{
				Name: fmt.Sprintf("newvscr/cr/N=%d", n),
				Run:  func() (int, error) { return crCase(n) },
			},
		)
	}
	out = append(out,
		Scenario{
			Name: "stack/p1/N=16",
			Run:  func() (int, error) { return stackCase(16, 1) },
		},
		Scenario{
			Name: "stack/storm/N=8",
			Run:  func() (int, error) { return stackCase(8, 8) },
		},
	)
	for _, n := range []int{5, 9} {
		n := n
		out = append(out, Scenario{
			Name: fmt.Sprintf("stack/partition/N=%d/cut=2", n),
			Run:  func() (int, error) { return partitionCase(n, 2) },
		})
	}
	// N=5 only: the virtual clock's win is waiting-time, and quiesce settling
	// is CPU-bound per node, so the advantage narrows as N grows (see
	// docs/VCLOCK.md). The N=5 pair against stack/partition/N=5 is the
	// apples-to-apples measurement.
	out = append(out, Scenario{
		Name: "membership/partition-virtual/N=5/cut=2",
		Run:  func() (int, error) { return partitionVirtualCase(5, 2) },
	})
	for _, cycles := range []int{1, 3} {
		cycles := cycles
		out = append(out, Scenario{
			Name: fmt.Sprintf("membership/churn/N=5/cycles=%d", cycles),
			Run:  func() (int, error) { return churnCase(5, cycles) },
		})
	}
	for _, g := range []int{8, 32} {
		g := g
		for _, mode := range []string{"2pl", "fastpath"} {
			fast := mode == "fastpath"
			out = append(out, Scenario{
				Name: fmt.Sprintf("atomicobj/contention/%s/G=%d/K=2", mode, g),
				Run:  func() (int, error) { return contentionCase(g, 2, 200, fast) },
			})
		}
	}
	for _, rate := range []int{1000, 4000} {
		rate := rate
		out = append(out, Scenario{
			Name: fmt.Sprintf("server/openloop/N=4/rate=%d", rate),
			Open: func() (OpenLoopResult, error) { return openLoopCase(4, rate, 0) },
		})
	}
	out = append(out, Scenario{
		Name: "server/openloop/N=4/rate=4000/cap=32",
		Open: func() (OpenLoopResult, error) { return openLoopCase(4, 4000, 32) },
	})
	return out
}

// openLoopCase drives one shared server with Poisson arrivals of
// single-raiser N-member actions: the multiplexed-runtime counterpart of
// stackCase, measuring sustained throughput and commit-latency tails instead
// of per-run cost. The capped variant adds admission backpressure, so its
// tail shows queueing-at-the-door rather than in-server contention.
func openLoopCase(n, rate, cap int) (OpenLoopResult, error) {
	return OpenLoop(OpenLoopSpec{
		Scenario:    scenario.Spec{N: n, P: 1},
		Rate:        float64(rate),
		Actions:     300,
		Seed:        1,
		MaxInFlight: cap,
	})
}

// protocolCase drains one deterministic (n, p, q) resolution on the protocol
// fabric and returns the exact message total. Each of the q nested objects
// sits depth singleton actions deep (depth 1 matches the §4.4
// parameterisation; deeper chains exercise the abortion walk).
func protocolCase(n, p, q, depth int) (int, error) {
	sim := protocol.NewSim()
	tb := exception.NewBuilder("root")
	for i := 1; i <= n; i++ {
		tb.Add(fmt.Sprintf("E%d", i), "root")
	}
	tree := tb.MustBuild()
	all := make([]ident.ObjectID, n)
	for i := range all {
		all[i] = ident.ObjectID(i + 1)
		sim.AddEngine(all[i])
	}
	if err := sim.EnterAll(protocol.Frame{
		Action: 1, Path: []ident.ActionID{1}, Members: all, Tree: tree,
	}, all...); err != nil {
		return 0, err
	}
	for i := 0; i < q; i++ {
		obj := all[p+i]
		path := []ident.ActionID{1}
		for d := 0; d < depth; d++ {
			na := ident.ActionID(100 + i*depth + d)
			path = append(path, na)
			if err := sim.EnterAll(protocol.Frame{
				Action: na, Path: append([]ident.ActionID(nil), path...),
				Members: []ident.ObjectID{obj}, Tree: tree,
			}, obj); err != nil {
				return 0, err
			}
		}
	}
	for i := 0; i < p; i++ {
		if _, err := sim.Engines[all[i]].RaiseLocal(fmt.Sprintf("E%d", i+1)); err != nil {
			return 0, err
		}
	}
	if err := sim.Drain(100_000_000); err != nil {
		return 0, err
	}
	return sim.Log.TotalSends(), nil
}

// crCase runs the Campbell–Randell baseline on E5's domino scenario (chain
// tree of depth 2N, alternating reduced trees).
func crCase(n int) (int, error) {
	cfg, err := crbaseline.DominoChainConfig(2*n, n)
	if err != nil {
		return 0, err
	}
	res, err := crbaseline.Run(cfg, map[ident.ObjectID]string{
		ident.ObjectID(n): fmt.Sprintf("e%d", 2*n),
	})
	if err != nil {
		return 0, err
	}
	return res.Messages, nil
}

// partitionCase runs the membership partition storm on the full stack: one
// raiser, the cut biggest objects expelled mid-resolution, the surviving
// majority committing a resolution that covers the participant failures. The
// message total includes the stall-and-release traffic the expulsion path
// adds on top of the plain single-raiser case.
func partitionCase(n, cut int) (int, error) {
	island := make([]int, cut)
	for i := range island {
		island[i] = n - i
	}
	res, err := scenario.Run(scenario.Spec{
		N:          n,
		P:          1,
		RaiseDelay: 30 * time.Millisecond,
		Membership: true,
		Partition:  island,
	})
	if err != nil {
		return 0, err
	}
	if !res.Outcome.Completed {
		return 0, fmt.Errorf("partition run N=%d cut=%d did not complete", n, cut)
	}
	if len(res.Outcome.Expelled) != cut {
		return 0, fmt.Errorf("partition run N=%d expelled %v, want %d members",
			n, res.Outcome.Expelled, cut)
	}
	return res.Total, nil
}

// partitionVirtualCase is partitionCase on the virtual clock: the identical
// workload — same delays, same detector timings, now in virtual time — so
// the row pair measures exactly what auto-advance buys. The wall-clock rows
// in BENCH_5 sat at ~45 ms/op; these must run at least an order of magnitude
// faster (gated by TestVirtualPartitionSpeedGate).
func partitionVirtualCase(n, cut int) (int, error) {
	island := make([]int, cut)
	for i := range island {
		island[i] = n - i
	}
	res, err := scenario.Run(scenario.Spec{
		N:          n,
		P:          1,
		RaiseDelay: 30 * time.Millisecond,
		Membership: true,
		Partition:  island,
		Virtual:    true,
	})
	if err != nil {
		return 0, err
	}
	if !res.Outcome.Completed {
		return 0, fmt.Errorf("virtual partition run N=%d cut=%d did not complete", n, cut)
	}
	if len(res.Outcome.Expelled) != cut {
		return 0, fmt.Errorf("virtual partition run N=%d expelled %v, want %d members",
			n, res.Outcome.Expelled, cut)
	}
	return res.Total, nil
}

// churnCase runs the full partition/heal/rejoin lifecycle on the virtual
// clock: one persistent group, `cycles` expel-and-readmit rounds, a final
// whole-group resolution with the rejoined member participating. The Msgs
// column reports successful rejoins (want == cycles).
func churnCase(n, cycles int) (int, error) {
	res, err := scenario.RunChurn(scenario.ChurnSpec{
		N:       n,
		Cycles:  cycles,
		Lease:   200 * time.Millisecond,
		Virtual: true,
	})
	if err != nil {
		return 0, err
	}
	if res.Rejoined != cycles || res.Expelled != cycles {
		return 0, fmt.Errorf("churn N=%d cycles=%d: expelled=%d rejoined=%d, want %d each",
			n, cycles, res.Expelled, res.Rejoined, cycles)
	}
	if res.PostHealParticipants != 1 {
		return 0, fmt.Errorf("churn N=%d: rejoined member missed the post-heal resolution (%q)",
			n, res.PostHealResolved)
	}
	return res.Rejoined, nil
}

// stackCase runs the full concurrent stack (core runtime over netsim) for
// (n, p) and returns the observed protocol message total. With p == 1 the
// count is deterministic, 3(N-1); with p == n scheduling races can suppress
// raises, so the count is last-observed.
func stackCase(n, p int) (int, error) {
	res, err := scenario.Run(scenario.Spec{N: n, P: p})
	if err != nil {
		return 0, err
	}
	if !res.Outcome.Completed {
		return 0, fmt.Errorf("stack run N=%d P=%d did not complete", n, p)
	}
	return res.Total, nil
}
