// Command caasim runs one ad-hoc CA-action scenario over the full simulated
// distributed stack and reports the outcome, the protocol-message census and
// the paper's closed-form prediction for the observed parameters.
//
// Examples:
//
//	caasim -n 8 -p 2                    # 8 objects, 2 concurrent raisers
//	caasim -n 6 -p 1 -q 3 -depth 2     # 3 objects nested two deep
//	caasim -n 4 -p 1 -latency 2ms      # with network latency
//	caasim -n 4 -p 2 -transport tcp    # over real loopback sockets, wire codec, R3
//	caasim -n 3 -p 1 -policy wait -timeout 1s -belated
//	caasim -n 5 -partition 4,5 -virtual # membership run on the virtual clock
//	caasim -n 5 -churn 3 -virtual       # 3 partition/heal/rejoin cycles
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/scenario"
	"repro/internal/scengen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "caasim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("caasim", flag.ContinueOnError)
	var (
		n          = fs.Int("n", 4, "participating objects")
		p          = fs.Int("p", 1, "objects raising exceptions concurrently")
		q          = fs.Int("q", 0, "objects inside nested actions")
		depth      = fs.Int("depth", 1, "nesting depth for the -q objects")
		latency    = fs.Duration("latency", 0, "one-way network latency")
		raiseDelay = fs.Duration("raise-delay", 10*time.Millisecond, "delay before raising (lets nesting form)")
		policy     = fs.String("policy", "abort", "nested-action policy: abort | wait")
		tport      = fs.String("transport", "raw", "messaging layer: raw | r3 | tcp (real loopback sockets)")
		timeout    = fs.Duration("timeout", 30*time.Second, "run timeout")
		concurrent = fs.Int("concurrent", 1, "submit this many copies of the action to one shared server and report aggregate agreement")
		belated    = fs.Bool("belated", false, "run the belated-participant workload (Figure 1) instead")
		showTrace  = fs.Bool("trace", false, "print the full event trace (paper-style message log)")
		partition  = fs.String("partition", "", "comma-separated object numbers to cut away mid-run (enables membership monitoring, e.g. -partition 4,5)")
		partDelay  = fs.Duration("partition-delay", 0, "delay before the partition cut (0 = 20ms)")
		virtual    = fs.Bool("virtual", false, "run on an auto-advancing virtual clock (netsim transports only): timeouts cost virtual time, not wall clock")
		churn      = fs.Int("churn", 0, "run this many partition/heal/rejoin cycles on one persistent group (uses -n, -partition as the victim set, -virtual)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	pol := core.AbortNestedActions
	switch *policy {
	case "abort":
	case "wait":
		pol = core.WaitForNestedActions
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}

	cfg := scengen.Config{Latency: *latency, Virtual: *virtual, Timeout: *timeout}
	switch *tport {
	case "raw":
	case "r3":
		cfg.Transport = core.TransportReliable
	case "tcp":
		cfg.Transport = core.TransportTCP
	default:
		return fmt.Errorf("unknown transport %q", *tport)
	}

	var cut []int
	if *partition != "" {
		var err error
		if cut, err = parsePartition(*partition); err != nil {
			return err
		}
	}
	if *churn > 0 {
		return runChurn(*n, cut, *churn, cfg)
	}

	if *belated {
		out, err := scenario.RunBelated(pol, *timeout)
		if errors.Is(err, core.ErrTimeout) {
			fmt.Printf("policy=%s: run TIMED OUT after %v (resolution blocked on the belated participant)\n",
				*policy, *timeout)
			return nil
		}
		if err != nil {
			return err
		}
		fmt.Printf("policy=%s: completed=%v resolved=%q\n", *policy, out.Completed, out.Resolved)
		return nil
	}

	prog, err := scengen.Grid(*n, *p, *q, *depth, *raiseDelay, pol == core.WaitForNestedActions)
	if err != nil {
		return err
	}
	if cut != nil {
		if prog, err = scengen.Partitioned(prog, cut, *partDelay); err != nil {
			return err
		}
	}
	if *concurrent > 1 {
		return runConcurrent(prog, *concurrent, cfg,
			fmt.Sprintf("N=%d P=%d Q=%d", *n, *p, *q), *tport)
	}
	res, err := scengen.Run(prog, cfg)
	if err != nil {
		return err
	}
	out := res.Outcomes[0]

	fmt.Printf("scenario: N=%d P=%d Q=%d depth=%d latency=%v policy=%s transport=%s\n",
		*n, *p, *q, *depth, *latency, *policy, *tport)
	fmt.Printf("outcome: completed=%v resolved=%q signalled=%q\n",
		out.Completed, out.Resolved, out.Signalled)
	if len(out.Expelled) > 0 {
		fmt.Printf("expelled: %v (membership views decided these participants failed)\n",
			out.Expelled)
	}
	fmt.Printf("elapsed: %v\n", res.Elapsed.Round(time.Microsecond))
	if cfg.Virtual {
		fmt.Printf("virtual-elapsed: %v\n", res.VirtualElapsed)
	}

	kinds := make([]string, 0, len(res.Census))
	for k := range res.Census {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Println("protocol messages:")
	for _, k := range kinds {
		fmt.Printf("  %-16s %d\n", k, res.Census[k])
	}
	fmt.Printf("  %-16s %d\n", "total", res.Total)
	fmt.Printf("observed P=%d Q=%d -> paper's prediction (N-1)(2P+3Q+1) = %d  [match: %v]\n",
		res.ObservedP, res.ObservedQ, res.Predicted, res.Predicted == res.Total)
	if *showTrace {
		fmt.Println("\nevent trace:")
		fmt.Print(res.Log.Dump())
	}
	return nil
}

// runChurn is the -churn mode: one persistent group survives a sequence of
// partition/heal/rejoin cycles, each expelling the victim set and readmitting
// it via petition, quorum-leased view change and state transfer, then a final
// whole-group exception run proves the rejoined members resolve again.
func runChurn(n int, victims []int, cycles int, cfg scengen.Config) error {
	prog, err := scengen.Churn(n, victims, cycles)
	if err != nil {
		return err
	}
	res, err := scengen.Run(prog, cfg)
	if err != nil {
		return err
	}
	expelled, rejoined := 0, 0
	for i, c := range res.Cycles {
		if c.Cut.Resolved != core.ExcParticipantFailure {
			return fmt.Errorf("cycle %d cut run resolved %q, want %q", i, c.Cut.Resolved, core.ExcParticipantFailure)
		}
		expelled += len(c.Cut.Expelled)
		rejoined += len(c.Rejoin.Rejoined)
	}
	out := res.Outcomes[0]
	participants := 0
	for _, v := range prog.Partition.Cut {
		if r := out.PerObject[ident.ObjectID(v)]; r.Resolved == out.Resolved && out.Resolved != "" {
			participants++
		}
	}
	fmt.Printf("churn: N=%d victims=%v cycles=%d virtual=%v\n",
		n, prog.Partition.Cut, len(res.Cycles), cfg.Virtual)
	fmt.Printf("expelled=%d rejoined=%d final-epoch=%d\n", expelled, rejoined, res.FinalEpoch)
	fmt.Printf("post-heal: resolved=%q with %d/%d rejoined members participating\n",
		out.Resolved, participants, len(prog.Partition.Cut))
	fmt.Printf("elapsed: %v (%v per cycle)\n",
		res.Elapsed.Round(time.Microsecond),
		(res.Elapsed / time.Duration(len(res.Cycles))).Round(time.Microsecond))
	if cfg.Virtual {
		fmt.Printf("virtual-elapsed: %v\n", res.VirtualElapsed)
	}
	return nil
}

// runConcurrent is the -concurrent mode: copies of the same action are
// submitted together to the one server the flags describe, multiplexed over
// the same per-object transports, and the aggregate report shows whether
// every copy reached the same outcome the action reaches when run alone.
func runConcurrent(prog *scengen.Program, copies int, cfg scengen.Config, shape, tport string) error {
	for k := 1; k < copies; k++ {
		prog.Families = append(prog.Families, prog.Families[0])
	}
	res, err := scengen.Run(prog, cfg)
	if len(res.Outcomes) == 0 {
		return err
	}
	completed := 0
	resolved := make(map[string]int)
	for k, out := range res.Outcomes {
		if res.Errs[k] != nil {
			continue
		}
		if out.Completed {
			completed++
		}
		resolved[out.Resolved]++
	}

	fmt.Printf("concurrent: %d copies of %s on one shared server (transport=%s)\n", copies, shape, tport)
	fmt.Printf("agreement: %d/%d copies completed\n", completed, copies)
	keys := make([]string, 0, len(resolved))
	for k := range resolved {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		label := k
		if label == "" {
			label = "(none)"
		}
		fmt.Printf("  resolved %-12s %d\n", label, resolved[k])
	}
	fmt.Printf("protocol messages: %s\n", res.Log.CensusString())
	fmt.Printf("elapsed: %v (%.0f actions/sec)\n",
		res.Elapsed.Round(time.Microsecond), float64(copies)/res.Elapsed.Seconds())
	if cfg.Virtual {
		fmt.Printf("virtual-elapsed: %v\n", res.VirtualElapsed)
	}
	if err != nil {
		return err
	}
	if completed != copies {
		return fmt.Errorf("%d of %d copies did not complete", copies-completed, copies)
	}
	return nil
}

// parsePartition parses the -partition flag: comma-separated object numbers.
func parsePartition(s string) ([]int, error) {
	var out []int
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		v, err := strconv.Atoi(field)
		if err != nil {
			return nil, fmt.Errorf("bad -partition entry %q: %w", field, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, errors.New("-partition lists no objects")
	}
	return out, nil
}
