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
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/scenario"
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
		partDelay  = fs.Duration("partition-delay", 0, "delay before the partition cut (0 = scenario default)")
		virtual    = fs.Bool("virtual", false, "run on an auto-advancing virtual clock (netsim transports only): timeouts cost virtual time, not wall clock")
		churn      = fs.Int("churn", 0, "run this many partition/heal/rejoin cycles on one persistent group (uses -n, -partition as the victim set, -lease, -virtual)")
		leaseTerm  = fs.Duration("lease", 200*time.Millisecond, "quorum-lease term protecting the view chooser during -churn (0 disables leases)")
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

	kind := core.TransportRaw
	switch *tport {
	case "raw":
	case "r3":
		kind = core.TransportReliable
	case "tcp":
		kind = core.TransportTCP
	default:
		return fmt.Errorf("unknown transport %q", *tport)
	}

	if *churn > 0 {
		var victims []int
		if *partition != "" {
			var err error
			if victims, err = parsePartition(*partition); err != nil {
				return err
			}
		}
		return runChurn(*n, victims, *churn, *leaseTerm, *virtual, *timeout)
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

	spec := scenario.Spec{
		N: *n, P: *p, Q: *q, Depth: *depth,
		RaiseDelay: *raiseDelay, Latency: *latency,
		Policy: pol, Transport: kind,
		Timeout: *timeout, KeepTrace: *showTrace,
	}
	if *partition != "" {
		cut, err := parsePartition(*partition)
		if err != nil {
			return err
		}
		spec.Membership = true
		spec.Partition = cut
		spec.PartitionDelay = *partDelay
	}
	spec.Virtual = *virtual
	if *concurrent > 1 {
		if spec.Membership {
			return errors.New("-concurrent and -partition are mutually exclusive (-concurrent submits to a server without membership monitoring)")
		}
		return runConcurrent(spec, *concurrent, *timeout)
	}
	res, err := scenario.Run(spec)
	if err != nil {
		return err
	}

	fmt.Printf("scenario: N=%d P=%d Q=%d depth=%d latency=%v policy=%s transport=%s\n",
		*n, *p, *q, *depth, *latency, *policy, *tport)
	fmt.Printf("outcome: completed=%v resolved=%q signalled=%q\n",
		res.Outcome.Completed, res.Outcome.Resolved, res.Outcome.Signalled)
	if len(res.Outcome.Expelled) > 0 {
		fmt.Printf("expelled: %v (membership views decided these participants failed)\n",
			res.Outcome.Expelled)
	}
	fmt.Printf("elapsed: %v\n", res.Elapsed.Round(time.Microsecond))
	if spec.Virtual {
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
		fmt.Print(res.Trace)
	}
	return nil
}

// runChurn is the -churn mode: one persistent group survives a sequence of
// partition/heal/rejoin cycles, each expelling the victim set and readmitting
// it via petition, quorum-leased view change and state transfer, then a final
// whole-group exception run proves the rejoined members resolve again.
func runChurn(n int, victims []int, cycles int, lease time.Duration, virtual bool, timeout time.Duration) error {
	res, err := scenario.RunChurn(scenario.ChurnSpec{
		N:       n,
		Victims: victims,
		Cycles:  cycles,
		Lease:   lease,
		Virtual: virtual,
		Timeout: timeout,
	})
	if err != nil {
		return err
	}
	if len(victims) == 0 {
		victims = []int{n}
	}
	fmt.Printf("churn: N=%d victims=%v cycles=%d lease=%v virtual=%v\n",
		n, victims, res.Cycles, lease, virtual)
	fmt.Printf("expelled=%d rejoined=%d final-epoch=%d\n",
		res.Expelled, res.Rejoined, res.FinalEpoch)
	fmt.Printf("post-heal: resolved=%q with %d/%d rejoined members participating\n",
		res.PostHealResolved, res.PostHealParticipants, len(victims))
	fmt.Printf("elapsed: %v (%v per cycle)\n",
		res.Elapsed.Round(time.Microsecond),
		(res.Elapsed / time.Duration(res.Cycles)).Round(time.Microsecond))
	if virtual {
		fmt.Printf("virtual-elapsed: %v\n", res.VirtualElapsed)
	}
	return nil
}

// runConcurrent is the -concurrent mode: copies of the same action are
// submitted together to one shared server, multiplexed over the same
// per-object transports, and the aggregate report shows whether every copy
// reached the same outcome the action reaches when run alone.
func runConcurrent(spec scenario.Spec, copies int, timeout time.Duration) error {
	def, err := scenario.Build(spec)
	if err != nil {
		return err
	}
	srv := core.NewServer(core.Options{
		Network:    netsim.Config{Latency: netsim.FixedLatency(spec.Latency)},
		Transport:  spec.Transport,
		Retransmit: spec.Retransmit,
	})
	defer srv.Close()

	outs := make([]core.Outcome, copies)
	errs := make([]error, copies)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < copies; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			outs[k], errs[k] = srv.RunTimeout(def, timeout)
		}(k)
	}
	wg.Wait()
	elapsed := time.Since(start)

	completed := 0
	resolved := make(map[string]int)
	var firstErr error
	for k := 0; k < copies; k++ {
		if errs[k] != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("copy %d: %w", k, errs[k])
			}
			continue
		}
		if outs[k].Completed {
			completed++
		}
		resolved[outs[k].Resolved]++
	}

	fmt.Printf("concurrent: %d copies of N=%d P=%d Q=%d on one shared server (transport=%v)\n",
		copies, spec.N, spec.P, spec.Q, spec.Transport)
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
	fmt.Printf("protocol messages: %s\n", srv.Trace().CensusString())
	fmt.Printf("elapsed: %v (%.0f actions/sec)\n",
		elapsed.Round(time.Microsecond), float64(copies)/elapsed.Seconds())
	if firstErr != nil {
		return firstErr
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
