package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// smokeConfig shrinks a workload to one (or, traced, one plain and one
// traced) 200 ms window, K=50 and a short warm-up. Nothing here asserts a
// time: the sizes only keep the test short.
func smokeConfig(w *workload, seed int64, trace bool) config {
	cfg := defaultConfig(w, seed, 1, trace)
	cfg.setupReps = 2
	cfg.warmup = 10
	cfg.countK = 50
	cfg.window = 200 * time.Millisecond
	cfg.windows = 1
	if trace {
		cfg.windows = 2
	}
	cfg.probes = probeSizes{div: 100}
	return cfg
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkEmitted asserts that res carries exactly the declared metrics, each
// with a legal name, its declared unit and a finite value.
func checkEmitted(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("emitted %d metrics, declared %d", len(res.Metrics), len(defs))
	}
	seen := make(map[string]bool)
	for _, def := range defs {
		if seen[def.Name] {
			t.Errorf("metric %s declared twice", def.Name)
		}
		seen[def.Name] = true
		if !metricName.MatchString(def.Name) {
			t.Errorf("metric name %q is not of the contract's form", def.Name)
		}
		m, ok := res.Metrics[def.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", def.Name)
		case m.Unit != def.Unit || m.Unit == "":
			t.Errorf("metric %s: unit %q, declared %q", def.Name, m.Unit, def.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s: value %v", def.Name, m.Value)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := run(smokeConfig(w, 7, false))
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("oracle: correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, res.notes)
			}
			checkEmitted(t, res, endToEnd)
			for _, def := range endToEnd {
				if v := res.Metrics[def.Name].Value; v <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", def.Name, v)
				}
			}
			wantMsgs := map[string]float64{"single": 10, "atomic": 1}
			if want, ok := wantMsgs[w.name]; ok {
				if got := res.Metrics[mMsgs.Name].Value; got != want {
					t.Errorf("msgs_per_action = %v, want exactly %v", got, want)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := run(smokeConfig(w, 7, true))
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("oracle: correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, res.notes)
			}
			checkEmitted(t, res, perLayer)
			sum := 0.0
			for _, s := range shareNames {
				sum += res.Metrics[shareDef(s).Name].Value
			}
			if math.Abs(sum-1) > 0.001 {
				t.Errorf("share.* sum to %v, want 1", sum)
			}
			if _, err := os.Stat(spansPath(w.name)); err != nil {
				t.Errorf("spans file: %v", err)
			}
		})
	}
}

// TestAttributionSumsToOne pins the arithmetic: whatever the rows claim,
// share.unattributed closes the sum, and rows of one layer add up.
func TestAttributionSumsToOne(t *testing.T) {
	rows := []layerCost{
		{"core", 1, 40000},
		{"protocol", 9, 900},
		{"netsim", 9, 700},
		{"wire", 9, 150},
		{"wire", 18, 60},
		{"trace", 60, 90},
	}
	for _, cpuUS := range []float64{120, 30} { // the second is over-attributed on purpose
		shares := attribute(rows, 0.08, cpuUS)
		sum := 0.0
		for _, s := range shareNames {
			v, ok := shares[s]
			if !ok {
				t.Errorf("share %s missing", s)
			}
			sum += v
		}
		if math.Abs(sum-1) > 0.001 {
			t.Errorf("cpu %v us: shares sum to %v", cpuUS, sum)
		}
		if want := (9*150.0 + 18*60.0) / (cpuUS * 1000); math.Abs(shares["wire"]-want) > 1e-12 {
			t.Errorf("share.wire = %v, want %v", shares["wire"], want)
		}
	}
}

// TestSameSeedSameSequence checks that a stream's actions depend on the seed
// and the stream alone.
func TestSameSeedSameSequence(t *testing.T) {
	sequence := func(w *workload, seed int64, stream, client int) []int {
		g := newHarness(smokeConfig(w, seed, false)).generator(stream, client)
		ids := make([]int, 200)
		for i := range ids {
			ids[i] = g.next().id
		}
		return ids
	}
	for _, w := range workloads {
		for _, stream := range []int{0, 1, streamWarmup, streamCount, streamCount + 1} {
			client := stream % 100 // the client streams and the count streams carry their client's number
			a, b := sequence(w, 42, stream, client), sequence(w, 42, stream, client)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s stream %d: same seed, different sequences", w.name, stream)
			}
			if w.name == "storm" {
				continue // one variant: every sequence is the same
			}
			if c := sequence(w, 43, stream, client); reflect.DeepEqual(a, c) {
				t.Errorf("%s stream %d: seeds 42 and 43 give the same sequence", w.name, stream)
			}
		}
		if w.atomic {
			orders := func(seed int64) [][]int {
				var out [][]int
				for _, v := range newHarness(smokeConfig(w, seed, false)).variants[0] {
					out = append(out, v.keyOrder)
				}
				return out
			}
			if !reflect.DeepEqual(orders(42), orders(42)) {
				t.Errorf("atomic: same seed, different key orders")
			}
		}
	}
}

func TestQuietHalfKeepsTheFasterWindows(t *testing.T) {
	var wins []windowStats
	for _, rate := range []float64{100, 400, 200, 300} {
		wins = append(wins, windowStats{actions: int(rate), rate: rate, cpu: 1, lat: []float64{1 / rate}})
	}
	q := quietHalf(wins)
	if q.windows != 2 || q.actions != 700 || q.rate != 350 {
		t.Errorf("quiet half = %d windows, %d actions, rate %v; want 2, 700, 350", q.windows, q.actions, q.rate)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	got := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	want := [3]float64{2.75, 5.5, 8.25}
	if got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
	got = quartiles([]float64{3, 1, 2})
	want = [3]float64{1, 2, 3}
	if got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []jsonWorkload `json:"workloads"`
	EndToEnd   []jsonBounded  `json:"end_to_end"`
	PerLayer   []jsonMetric   `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type jsonBounded struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the declarations in this package")

// declaredBenchmarkJSON is BENCHMARK.json as this package declares it.
func declaredBenchmarkJSON() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"go", "run", "-C", "benchmark", "repro/benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, jsonWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, jsonBounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, jsonMetric{d.Name, d.Unit, d.Better})
	}
	return b
}

// TestBenchmarkJSONMatches holds BENCHMARK.json and the declarations in this
// package together; go test -run BenchmarkJSON -update rewrites the file.
func TestBenchmarkJSONMatches(t *testing.T) {
	want := declaredBenchmarkJSON()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the package's declarations; run go test -run BenchmarkJSON -update\n got %+v\nwant %+v", got, want)
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	for _, def := range endToEnd {
		if def.Bound <= 0 || def.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", def.Name, def.Bound)
		}
	}
}
