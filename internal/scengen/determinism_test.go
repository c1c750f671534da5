package scengen

import (
	"bytes"
	"testing"
)

// TestGenerateDeterministic: the same (seed, knobs) pair must produce
// byte-identical programs on every call — the property the whole corpus
// workflow rests on (a seed in a failure message IS the repro).
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		knobs := uint8(seed % 32)
		a := Generate(seed, KnobConfig(knobs)).Bytes()
		b := Generate(seed, KnobConfig(knobs)).Bytes()
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d knobs %d: two Generate calls disagree:\n%s\n---\n%s", seed, knobs, a, b)
		}
	}
}

// TestEncodeRoundTrip: Bytes/Decode must be lossless, so corpus files replay
// the exact generated program.
func TestEncodeRoundTrip(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		p := Generate(seed, KnobConfig(uint8(seed%32)))
		q, err := Decode(p.Bytes())
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !bytes.Equal(p.Bytes(), q.Bytes()) {
			t.Fatalf("seed %d: round trip changed the program", seed)
		}
	}
}

// TestOracleVerdictDeterministic: the oracle must return the same verdict for
// the same program on consecutive runs — a flaky oracle would poison the
// corpus with unreproducible "failures". One mid-sized program is enough
// here; the fuzz targets cover breadth.
func TestOracleVerdictDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full oracle runs are seconds-long; skipped in -short")
	}
	p := Generate(7, GenConfig{})
	first := Check(p, Options{})
	second := Check(p, Options{})
	if first.Failed() != second.Failed() {
		t.Fatalf("verdict flapped: first=%v second=%v\n%s\n%s",
			first.Failed(), second.Failed(), first, second)
	}
	if first.Failed() {
		t.Fatalf("seed 7 unexpectedly diverges:\n%s", first)
	}
}

// TestGrammarCoverage: across a modest seed range the generator must emit
// every structural feature the oracle is built to stress — multi-family
// programs, nesting, multi-raiser storms, belated joins, atomic ops (locking
// and fast, including cross-family hot keys and deltas pending under raises)
// and partitions, including heal-and-continue and flapping-member churn
// schedules. A silent generator regression would otherwise hollow out the
// fuzzer while every case still passes.
func TestGrammarCoverage(t *testing.T) {
	var multiFamily, nested, storm, belated, ops, partition, raiseFree bool
	var fastOps, hotCrossFamily, fastUnderRaise, healed, flapping bool
	for seed := uint64(0); seed < 1000; seed++ {
		p := Generate(seed, KnobConfig(uint8(seed%32)))
		if len(p.Families) > 1 {
			multiFamily = true
		}
		if p.Partition != nil {
			partition = true
			if p.Partition.Heal {
				healed = true
			}
			if p.Partition.Flap > 0 {
				flapping = true
			}
		}
		totalRaises := 0
		keyFamilies := make(map[string]map[int]bool)
		for fi := range p.Families {
			fam := &p.Families[fi]
			totalRaises += len(fam.Raises)
			if len(fam.Actions) > 1 {
				nested = true
			}
			if len(fam.Belated) > 0 {
				belated = true
			}
			if len(fam.Ops) > 0 {
				ops = true
			}
			for _, op := range fam.Ops {
				if !op.Fast {
					continue
				}
				fastOps = true
				if keyFamilies[op.Key] == nil {
					keyFamilies[op.Key] = make(map[int]bool)
				}
				keyFamilies[op.Key][fi] = true
				leaf := fam.leafOf(op.Obj)
				for _, site := range fam.RaiseSites() {
					if fam.isAncestorAction(site, leaf) {
						fastUnderRaise = true
					}
				}
			}
			for _, site := range fam.RaiseSites() {
				if len(fam.raisersAt(site)) > 1 {
					storm = true
				}
			}
		}
		for _, fams := range keyFamilies {
			if len(fams) > 1 {
				hotCrossFamily = true
			}
		}
		if totalRaises == 0 {
			raiseFree = true
		}
	}
	for name, seen := range map[string]bool{
		"multi-family": multiFamily, "nested": nested, "storm": storm,
		"belated": belated, "ops": ops, "partition": partition, "raise-free": raiseFree,
		"fast-ops": fastOps, "hot-cross-family": hotCrossFamily,
		"fast-under-raise":  fastUnderRaise,
		"heal-and-continue": healed, "flapping-member": flapping,
	} {
		if !seen {
			t.Errorf("no generated program in 1000 seeds exercised %s", name)
		}
	}
}

// TestGeneratedProgramsValid: Generate promises its output always validates
// (it panics otherwise); sweep a wide seed range to hold it to that.
func TestGeneratedProgramsValid(t *testing.T) {
	for seed := uint64(0); seed < 1000; seed++ {
		p := Generate(seed, KnobConfig(uint8(seed%32)))
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
