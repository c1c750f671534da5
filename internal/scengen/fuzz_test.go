package scengen

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fuzzOpts is the oracle configuration for fuzzing: the leak check is on
// (each case runs sequentially inside one fuzz worker process) and the settle
// deadlines are the defaults.
var fuzzOpts = Options{}

// FuzzScenario is the native fuzz target: the fuzzer mutates a (seed, knobs)
// pair, the generator turns it into a deterministic random action program and
// the differential oracle runs it across every backend. Any divergence is
// shrunk to a minimal program, written into the git-ignored testdata/repros
// and reported with its path; copying the file into testdata/corpus makes it
// a permanent regression case.
//
// Run the quick CI smoke with:
//
//	go test -fuzz=FuzzScenario -fuzztime=30s ./internal/scengen
func FuzzScenario(f *testing.F) {
	// Seed corpus: one entry per knob shape so even a short -fuzztime run
	// covers storms, partitions, single-family, small and high-contention
	// programs.
	for knobs := 0; knobs < 32; knobs++ {
		f.Add(uint64(1+knobs), uint8(knobs))
	}
	f.Fuzz(func(t *testing.T, seed uint64, knobs uint8) {
		p := Generate(seed, KnobConfig(knobs))
		rep := Check(p, fuzzOpts)
		if !rep.Failed() {
			return
		}
		min := shrinkForTest(p)
		path := writeRepro(t, min, seed, knobs)
		t.Fatalf("oracle divergence (seed=%d knobs=%d):\n%s\nshrunk repro: %s\nreplay: copy it into testdata/corpus, then go test -run TestCorpusReplay ./internal/scengen",
			seed, knobs, rep, path)
	})
}

// shrinkForTest minimises a failing program with a faster oracle
// configuration: known-failing programs are re-probed dozens of times, so the
// settle deadline drops and the leak check (which adds a settling wait per
// probe) is skipped.
func shrinkForTest(p *Program) *Program {
	opts := Options{Settle: 3 * time.Second, RunTimeout: 10 * time.Second, SkipLeak: true}
	return Shrink(p, func(c *Program) bool {
		return Check(c, opts).Failed()
	}, 150)
}

// writeRepro records a shrunk failing program in testdata/repros, which git
// ignores: a plain `go test` must never touch the tracked corpus, whose files
// are promoted by hand once a divergence is confirmed. Best-effort: in
// sandboxed runs where testdata is read-only the repro is still embedded in
// the failure message via the (seed, knobs) pair.
func writeRepro(t *testing.T, p *Program, seed uint64, knobs uint8) string {
	t.Helper()
	dir := filepath.Join("testdata", "repros")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("cannot create repro dir: %v", err)
		return "(not written)"
	}
	path := filepath.Join(dir, fmt.Sprintf("fail-seed%d-knobs%d.json", seed, knobs))
	if err := os.WriteFile(path, p.Bytes(), 0o644); err != nil {
		t.Logf("cannot write repro: %v", err)
		return "(not written)"
	}
	return path
}

// TestOracleSmoke runs a handful of generated programs through the full
// oracle under plain `go test`, one per knob shape, so every backend pairing
// is exercised even when fuzzing is never invoked.
func TestOracleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle smoke is seconds-long; skipped in -short")
	}
	for knobs := uint8(0); knobs < 32; knobs += 5 {
		p := Generate(uint64(40+knobs), KnobConfig(knobs))
		if rep := Check(p, fuzzOpts); rep.Failed() {
			t.Fatalf("knobs %d: %s", knobs, rep)
		}
	}
}

// TestShrinkerMinimises drives Shrink with a synthetic predicate — "fails
// whenever object 2 raises E1 at the root" — and checks the result is the
// minimal such program: the shrinker must strip the second family, the
// unrelated raises, ops, belated joins and unused exceptions.
func TestShrinkerMinimises(t *testing.T) {
	p := &Program{
		Version: Version,
		Exceptions: []ExcNode{
			{Name: "omega"},
			{Name: "E1", Parent: "omega"},
			{Name: "E2", Parent: "omega"},
			{Name: "E3", Parent: "E2"}, // never raised; must be shrunk away
		},
		Families: []Family{
			{
				Objects: []int{1, 2, 3},
				Actions: []Action{{Parent: -1, Members: []int{1, 2, 3}}},
				Raises:  []Raise{{Obj: 2, Exc: "E1"}, {Obj: 3, Exc: "E2", DelayMS: 2}},
			},
			{
				Objects: []int{101, 102, 103},
				Actions: []Action{
					{Parent: -1, Members: []int{101, 102, 103}},
					{Parent: 0, Members: []int{102, 103}},
				},
				Belated: []Belated{{Obj: 102, Action: 1}},
				Ops: []AtomicOp{
					{Obj: 101, Key: "f1.a0", Add: 3},
					{Obj: 103, Key: "f1.a1", Add: 1},
				},
			},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("seed program invalid: %v", err)
	}

	failing := func(c *Program) bool {
		for _, f := range c.Families {
			for _, r := range f.Raises {
				if r.Obj == 2 && r.Exc == "E1" && f.leafOf(2) == 0 {
					return true
				}
			}
		}
		return false
	}
	if !failing(p) {
		t.Fatal("predicate does not fail on the seed program")
	}
	min := Shrink(p, failing, 500)
	if !failing(min) {
		t.Fatal("shrunk program no longer fails the predicate")
	}
	if got := len(min.Families); got != 1 {
		t.Fatalf("families not minimised: %d", got)
	}
	mf := &min.Families[0]
	// A valid single raise needs at least two objects in the root action
	// (the raiser plus one peer is not required by validation, but the raiser
	// must be a root-leaf member); the shrinker should get down to the raiser
	// alone or the raiser plus whatever validation forces.
	if len(mf.Objects) > 2 {
		t.Fatalf("objects not minimised: %v", mf.Objects)
	}
	if len(mf.Actions) != 1 {
		t.Fatalf("actions not minimised: %+v", mf.Actions)
	}
	if len(mf.Raises) != 1 || mf.Raises[0].Obj != 2 {
		t.Fatalf("raises not minimised: %+v", mf.Raises)
	}
	if len(mf.Belated) != 0 || len(mf.Ops) != 0 {
		t.Fatalf("belated/ops not stripped: %+v %+v", mf.Belated, mf.Ops)
	}
	if len(min.Exceptions) != 2 { // omega + E1
		t.Fatalf("exceptions not minimised: %+v", min.Exceptions)
	}
}
