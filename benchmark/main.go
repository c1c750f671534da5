// Command benchmark is the repository's load generator: it brings up a
// core.Server, drives it with closed-loop CA actions from two client
// goroutines in this process, checks every outcome, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer ones) by name. The
// last line of standard output is the result as one JSON object. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// runSeconds is the length of the timed phase BENCHMARK.json asks the driver
// for: with set-up, count phase and window boundaries a run then takes about
// 25 s, which fits the driver's 114 runs and two builds into its time cap.
const runSeconds = 20

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed for raisers, aborts, key order and network faults")
		seconds = flag.Int("seconds", runSeconds, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans and layer probes")
		aa      = flag.Int("aa", 0, "run two alternating sets of N runs per workload and print the A/A table")
	)
	flag.Parse()
	if *aa > 0 {
		os.Exit(runAA(*aa, *seconds, *seed))
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	// The figures are sized for two cores: two clients, two busy Ps.
	runtime.GOMAXPROCS(2)
	if runtime.NumCPU() < 2 {
		fmt.Println("warning: fewer than 2 CPUs; the two clients will share one core and every timing will read worse")
	}

	res := run(defaultConfig(w, *seed, *seconds, *trace == 1))
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// metricValue is one reported measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports; its JSON form is the contract's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	notes []string
}

func (r *result) set(def metricDef, v float64) {
	r.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit}
}

func (r *result) print(out *os.File) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, note := range r.notes {
		fmt.Fprintln(out, note)
	}
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(out, "%-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "attempted %d failed %d\n", r.Attempted, r.Failed)
	line, _ := json.Marshal(r)
	fmt.Fprintln(out, string(line))
}

// run executes one workload once and returns every metric of the selected
// mode: the end-to-end list, or with cfg.trace the per-layer list.
func run(cfg config) *result {
	h := newHarness(cfg)
	res := &result{Metrics: make(map[string]metricValue)}
	stopWatchdog := h.startWatchdog()
	defer stopWatchdog()

	first, err := h.setupOnce(true)
	if err != nil {
		res.notes = append(res.notes, "error: "+err.Error())
		return res
	}
	cnt := h.countPhase()
	var smp *sampler
	if cfg.trace {
		smp = startSampler()
	}
	wins, spans, setups, err := h.timedPhase()
	if cfg.trace {
		smp.stop()
	}
	h.finish()
	if err != nil {
		res.notes = append(res.notes, "error: "+err.Error())
		return res
	}
	setupS := median(append(setups, first))
	if cfg.trace {
		reportLayers(res, h, cnt, wins, spans, smp)
	} else {
		reportEndToEnd(res, setupS, cnt, wins)
	}
	res.Attempted = h.attempted.Load()
	res.Failed = h.failed.Load()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if h.firstErr != nil {
		res.notes = append(res.notes, "first failure: "+h.firstErr.Error())
	}
	return res
}

func reportEndToEnd(res *result, setupS float64, cnt counts, wins []windowStats) {
	k := float64(cnt.k)
	t := quietHalf(wins)
	res.set(mSetup, setupS)
	res.set(mRate, t.rate)
	res.set(mP50, percentile(t.lat, 0.50))
	res.set(mP90, percentile(t.lat, 0.90))
	// Protocol sends per action over every window of the timed phase, plus
	// one: the client's own request counts as a message, which keeps the
	// metric above zero on the workload that sends no protocol message at
	// all. The timed phase and not the count phase, because how many of a
	// storm's raises are accepted before the rest are suppressed depends on
	// how the participants' goroutines interleave, and that settles only
	// over many actions spread over the run.
	res.set(mMsgs, 1+perAction(wins).msgs)
	res.set(mAllocs, float64(cnt.mallocs)/k)
	res.set(mAllocKB, float64(cnt.allocBytes)/k/1024)
	res.set(mRetainedKB, float64(cnt.retained)/k/1024)
	res.notes = append(res.notes, fmt.Sprintf(
		"timed phase: %d quiet windows, %d actions, window cv %.3f, cpu %.1f us/action, p99 %.3f ms, max %.3f ms",
		t.windows, t.actions, t.windowCV, t.cpuUS, percentile(t.lat, 0.99), percentile(t.lat, 1)))
}
