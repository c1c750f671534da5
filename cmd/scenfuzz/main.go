// Command scenfuzz is the long-running scenario fuzzer: it walks seeds
// through the generator and the cross-backend differential oracle
// (internal/scengen), shrinks any divergence to a minimal program, and writes
// the repro JSON where -out points — typically internal/scengen/testdata/corpus,
// so the failure becomes a permanent regression test. Nightly CI runs it with
// a time budget and uploads whatever it wrote as artifacts.
//
// Usage:
//
//	go run ./cmd/scenfuzz -duration 10m -out internal/scengen/testdata/corpus
//	go run ./cmd/scenfuzz -cases 200 -seed 1 -jobs 4
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scengen"
)

func main() {
	var (
		duration = flag.Duration("duration", 0, "time budget (0 = use -cases)")
		cases    = flag.Int("cases", 100, "number of cases when -duration is 0")
		seed     = flag.Uint64("seed", 1, "first seed")
		jobs     = flag.Int("jobs", 1, "concurrent oracle workers (leak check is disabled when > 1)")
		out      = flag.String("out", "", "directory for shrunk failure repros (empty = don't write)")
		verbose  = flag.Bool("v", false, "log every case")
	)
	flag.Parse()

	opts := scengen.Options{SkipLeak: *jobs > 1}
	deadline := time.Time{}
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
	}

	var (
		ran      atomic.Int64
		failures atomic.Int64
		wg       sync.WaitGroup
		seeds    = make(chan uint64)
	)
	worker := func() {
		defer wg.Done()
		for s := range seeds {
			// The knob byte cycles through the grammar's shape biases so every
			// seed range covers storms, partitions and multi-family programs.
			knobs := uint8(s % 16)
			p := scengen.Generate(s, scengen.KnobConfig(knobs))
			rep := scengen.Check(p, opts)
			ran.Add(1)
			if *verbose {
				fmt.Printf("%s\n", rep)
			}
			if !rep.Failed() {
				continue
			}
			failures.Add(1)
			fmt.Fprintf(os.Stderr, "FAIL %s", rep)
			min := shrinkFailure(p)
			if *out != "" {
				path := filepath.Join(*out, fmt.Sprintf("fail-seed%d-knobs%d.json", s, knobs))
				if err := os.MkdirAll(*out, 0o755); err != nil {
					fmt.Fprintf(os.Stderr, "scenfuzz: %v\n", err)
				} else if err := os.WriteFile(path, min.Bytes(), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "scenfuzz: %v\n", err)
				} else {
					fmt.Fprintf(os.Stderr, "scenfuzz: wrote shrunk repro to %s\n", path)
				}
			}
		}
	}
	for i := 0; i < *jobs; i++ {
		wg.Add(1)
		go worker()
	}

	if deadline.IsZero() {
		for i := 0; i < *cases; i++ {
			seeds <- *seed + uint64(i)
		}
	} else {
		for s := *seed; !time.Now().After(deadline); s++ {
			seeds <- s
		}
	}
	close(seeds)
	wg.Wait()

	fmt.Printf("scenfuzz: %d cases, %d failure(s)\n", ran.Load(), failures.Load())
	if failures.Load() > 0 {
		os.Exit(1)
	}
}

// shrinkFailure minimises a failing program with a faster oracle
// configuration: known-failing programs are re-checked dozens of times, so
// the settle deadline drops and the leak check (2s allowance per probe when a
// leak is present) is skipped.
func shrinkFailure(p *scengen.Program) *scengen.Program {
	shrinkOpts := scengen.Options{
		Settle:     3 * time.Second,
		RunTimeout: 10 * time.Second,
		SkipLeak:   true,
	}
	return scengen.Shrink(p, func(c *scengen.Program) bool {
		return scengen.Check(c, shrinkOpts).Failed()
	}, 150)
}
