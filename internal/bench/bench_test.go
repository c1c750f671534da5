package bench

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/protocol"
)

// TestDefaultSuiteSmoke runs every registered scenario once and checks the
// deterministic message counts against the paper's formulas.
func TestDefaultSuiteSmoke(t *testing.T) {
	ms, err := MeasureAll(Default(), Options{Smoke: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"protocol/storm/N=8":       protocol.PredictMessages(8, 8, 0),
		"protocol/storm/N=64":      protocol.PredictMessages(64, 64, 0),
		"protocol/nesting/depth=1": protocol.PredictMessages(4, 1, 2),
		"newvscr/new/N=16":         protocol.PredictMessages(16, 1, 0),
		"stack/p1/N=16":            protocol.PredictMessages(16, 1, 0),
	}
	seen := make(map[string]bool, len(ms))
	for _, m := range ms {
		seen[m.Name] = true
		if m.Iterations != 1 {
			t.Errorf("%s: smoke ran %d iterations, want 1", m.Name, m.Iterations)
		}
		if w, ok := want[m.Name]; ok && m.Msgs != w {
			t.Errorf("%s: %d messages, want %d", m.Name, m.Msgs, w)
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("scenario %s missing from the default suite", name)
		}
	}
}

// TestContentionFastPathNoAborts is the fast path's gate: the commuting
// contention workload must finish with exactly zero wait-die aborts and an
// exact sum, at both sweep sizes. The 2PL twin is exercised (and its sum
// verified) by TestDefaultSuiteSmoke; its abort count is load-dependent, so
// only the fast path pins a number.
func TestContentionFastPathNoAborts(t *testing.T) {
	for _, g := range []int{8, 32} {
		aborts, err := contentionCase(g, 2, 200, true)
		if err != nil {
			t.Fatalf("G=%d: %v", g, err)
		}
		if aborts != 0 {
			t.Errorf("G=%d: fast path hit %d wait-die aborts, want 0", g, aborts)
		}
	}
}

// TestFileRoundTrip checks the BENCH_*.json read/append/write cycle.
func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	f := File{Runs: []Run{{
		Label: "baseline", GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64",
		Date:      "2026-01-01T00:00:00Z",
		Scenarios: []Measurement{{Name: "x", Iterations: 3, NsPerOp: 1.5, Msgs: 42}},
	}}}
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema {
		t.Fatalf("schema %q, want %q", got.Schema, Schema)
	}
	got.Runs = append(got.Runs, Run{Label: "optimised"})
	if err := WriteFile(path, got); err != nil {
		t.Fatal(err)
	}
	got2, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2.Runs) != 2 || got2.Runs[0].Label != "baseline" || got2.Runs[1].Label != "optimised" {
		t.Fatalf("runs after append: %+v", got2.Runs)
	}
	if got2.Runs[0].Scenarios[0].Msgs != 42 {
		t.Fatalf("scenario payload lost: %+v", got2.Runs[0].Scenarios)
	}
}

// TestMeasureCalibration checks that the calibrated loop stays within the
// iteration cap and reports sane per-op numbers.
func TestMeasureCalibration(t *testing.T) {
	calls := 0
	s := Scenario{Name: "tiny", Run: func() (int, error) { calls++; return 7, nil }}
	m, err := Measure(s, Options{Target: 5 * time.Millisecond, MaxIterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	if m.Iterations < 1 || m.Iterations > 50 {
		t.Fatalf("iterations %d out of [1, 50]", m.Iterations)
	}
	if calls != m.Iterations+1 { // warm-up + measured loop
		t.Fatalf("scenario ran %d times, want %d", calls, m.Iterations+1)
	}
	if m.Msgs != 7 || m.NsPerOp < 0 {
		t.Fatalf("measurement %+v", m)
	}
}
