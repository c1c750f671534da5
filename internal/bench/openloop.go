package bench

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

// OpenLoopSpec parameterises an open-loop load run against one shared action
// server: submissions follow a Poisson arrival process at Rate regardless of
// how fast the server drains — the open-loop discipline, where overload shows
// up as latency instead of silently reducing the offered load.
type OpenLoopSpec struct {
	// Scenario is the per-action workload (a non-membership scenario spec;
	// its transport/network fields are ignored — the shared server's are
	// configured below).
	Scenario scenario.Spec
	// Rate is the mean arrival rate in actions per second.
	Rate float64
	// Actions is the total number of actions submitted.
	Actions int
	// Seed seeds the arrival process (0 = 1), making runs reproducible.
	Seed int64
	// MaxInFlight, when > 0, caps concurrent actions on the server; the
	// submitter then blocks at the cap, and that admission wait counts
	// toward the blocked actions' latency.
	MaxInFlight int
	// Transport configures the shared server.
	Transport core.TransportKind
}

// OpenLoopResult reports one open-loop run.
type OpenLoopResult struct {
	// Actions is the number of actions that ran (all of them, or the run
	// errored).
	Actions int
	// Elapsed spans the first scheduled arrival to the last commit.
	Elapsed time.Duration
	// ActionsPerSec is the sustained commit throughput, Actions / Elapsed.
	ActionsPerSec float64
	// P50, P99 and P999 are commit-latency percentiles measured from each
	// action's *scheduled* arrival time to its outcome, so admission waits
	// and submitter lag are charged to the actions they delay (no
	// coordinated omission).
	P50, P99, P999 time.Duration
}

// OpenLoop submits spec.Actions copies of the scenario's action to one
// shared server with Poisson-distributed inter-arrival times and reports
// throughput and commit-latency percentiles.
func OpenLoop(spec OpenLoopSpec) (OpenLoopResult, error) {
	if spec.Rate <= 0 {
		return OpenLoopResult{}, errors.New("bench: open-loop Rate must be > 0")
	}
	if spec.Actions <= 0 {
		return OpenLoopResult{}, errors.New("bench: open-loop Actions must be > 0")
	}
	def, err := scenario.Build(spec.Scenario)
	if err != nil {
		return OpenLoopResult{}, err
	}
	srv := core.NewServer(core.Options{
		Transport:   spec.Transport,
		MaxInFlight: spec.MaxInFlight,
	})
	defer srv.Close()

	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))

	lats := make([]time.Duration, spec.Actions)
	firstErr := make(chan error, 1)
	var wg sync.WaitGroup
	start := time.Now()
	due := start
	for k := 0; k < spec.Actions; k++ {
		due = due.Add(time.Duration(rng.ExpFloat64() * float64(time.Second) / spec.Rate))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		p, err := srv.Submit(def)
		if err != nil {
			return OpenLoopResult{}, fmt.Errorf("bench: open-loop submit %d: %w", k, err)
		}
		wg.Add(1)
		go func(k int, arrived time.Time) {
			defer wg.Done()
			out, werr := p.Wait()
			if werr == nil && !out.Completed {
				werr = fmt.Errorf("action %d did not complete", k)
			}
			if werr != nil {
				select {
				case firstErr <- werr:
				default:
				}
				return
			}
			lats[k] = time.Since(arrived)
		}(k, due)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-firstErr:
		return OpenLoopResult{}, fmt.Errorf("bench: open-loop: %w", err)
	default:
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return OpenLoopResult{
		Actions:       spec.Actions,
		Elapsed:       elapsed,
		ActionsPerSec: float64(spec.Actions) / elapsed.Seconds(),
		P50:           percentile(lats, 0.50),
		P99:           percentile(lats, 0.99),
		P999:          percentile(lats, 0.999),
	}, nil
}

// percentile returns the q-quantile of the sorted sample by the nearest-rank
// method.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
