// Package bench is the machine-readable benchmark harness behind cmd/bench.
// It runs the repository's hot-path workloads — protocol-level storms,
// nesting-depth sweeps, the New-vs-Campbell–Randell comparison and full-stack
// runs — and reports ns/op, B/op, allocs/op and the exact
// protocol-message count per scenario, so every PR leaves a perf trajectory
// (BENCH_*.json) that benchstat or a plain diff can compare.
//
// Unlike `go test -bench`, the harness is a plain library: cmd/bench can run
// it with a programmatic time target, append labelled runs (baseline vs
// optimised) to one JSON file, and smoke-run everything in CI with a single
// iteration.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Schema identifies the BENCH_*.json layout.
const Schema = "caa-bench/1"

// Scenario is one named workload. Run executes a single iteration and
// returns the number of protocol messages it moved (0 when not applicable).
type Scenario struct {
	Name string
	Run  func() (msgs int, err error)
	// Open, when non-nil, marks an open-loop load scenario: Run is ignored,
	// each iteration executes one whole open-loop run, and the last run's
	// throughput and latency percentiles land in the measurement's
	// open-loop columns.
	Open func() (OpenLoopResult, error)
}

// Measurement is the recorded result of one scenario.
type Measurement struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Msgs is the exact protocol-message count of one iteration (stable for
	// the deterministic scenarios, last-observed for the concurrent ones).
	Msgs int `json:"msgs"`
	// Open-loop scenarios only (server/* rows): sustained commit throughput
	// and commit-latency percentiles of the last measured open-loop run.
	ActionsPerSec float64 `json:"actions_per_sec,omitempty"`
	P50Ns         float64 `json:"p50_ns,omitempty"`
	P99Ns         float64 `json:"p99_ns,omitempty"`
	P999Ns        float64 `json:"p999_ns,omitempty"`
}

// Run is one labelled execution of the suite.
type Run struct {
	Label     string        `json:"label"`
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	Date      string        `json:"date"`
	Scenarios []Measurement `json:"scenarios"`
}

// File is the on-disk BENCH_*.json document: a sequence of labelled runs so
// baseline and optimised results live side by side.
type File struct {
	Schema string `json:"schema"`
	Runs   []Run  `json:"runs"`
}

// Options configure a suite execution.
type Options struct {
	// Target is the wall-clock budget per scenario (default 300ms). The
	// iteration count is calibrated from a warm-up run to fit it.
	Target time.Duration
	// Smoke forces exactly one measured iteration per scenario (CI mode).
	Smoke bool
	// MaxIterations caps the calibrated count (default 10000).
	MaxIterations int
}

func (o Options) withDefaults() Options {
	if o.Target <= 0 {
		o.Target = 300 * time.Millisecond
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 10000
	}
	return o
}

// Measure runs one scenario: a warm-up iteration calibrates the measured
// iteration count, then the measured loop records wall clock and allocator
// deltas via runtime.ReadMemStats.
func Measure(s Scenario, opts Options) (Measurement, error) {
	opts = opts.withDefaults()

	run := s.Run
	var open OpenLoopResult
	if s.Open != nil {
		run = func() (int, error) {
			r, err := s.Open()
			if err != nil {
				return 0, err
			}
			open = r
			return 0, nil
		}
	}

	// Warm-up: primes caches and yields the per-iteration time estimate.
	warmStart := time.Now()
	msgs, err := run()
	warmElapsed := time.Since(warmStart)
	if err != nil {
		return Measurement{}, fmt.Errorf("bench %s: %w", s.Name, err)
	}

	iters := 1
	if !opts.Smoke && warmElapsed > 0 {
		iters = int(opts.Target / warmElapsed)
		if iters < 1 {
			iters = 1
		}
		if iters > opts.MaxIterations {
			iters = opts.MaxIterations
		}
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if msgs, err = run(); err != nil {
			return Measurement{}, fmt.Errorf("bench %s: %w", s.Name, err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	n := float64(iters)
	m := Measurement{
		Name:        s.Name,
		Iterations:  iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / n,
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / n,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / n,
		Msgs:        msgs,
	}
	if s.Open != nil {
		m.ActionsPerSec = open.ActionsPerSec
		m.P50Ns = float64(open.P50.Nanoseconds())
		m.P99Ns = float64(open.P99.Nanoseconds())
		m.P999Ns = float64(open.P999.Nanoseconds())
	}
	return m, nil
}

// MeasureAll measures every scenario in order. report, when non-nil, receives
// each measurement as it lands (progress output).
func MeasureAll(scenarios []Scenario, opts Options, report func(Measurement)) ([]Measurement, error) {
	out := make([]Measurement, 0, len(scenarios))
	for _, s := range scenarios {
		m, err := Measure(s, opts)
		if err != nil {
			return out, err
		}
		if report != nil {
			report(m)
		}
		out = append(out, m)
	}
	return out, nil
}

// ReadFile loads an existing BENCH_*.json document.
func ReadFile(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if f.Schema != Schema {
		return f, fmt.Errorf("bench: %s has schema %q, want %q", path, f.Schema, Schema)
	}
	return f, nil
}

// WriteFile writes the document with a stable, diff-friendly layout.
func WriteFile(path string, f File) error {
	f.Schema = Schema
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
