package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// runAA is the A/A experiment: two sets of n runs of this very binary, run
// alternately (A1 B1 A2 B2 ...) so that slow drift of the box lands on both,
// each run with its own seed, every workload in every run. It prints, per
// workload and end-to-end metric, both medians with their quartiles, the gap
// between the medians, the wider of the two spreads and the bound. The
// bounds in metrics.go are read off this table.
func runAA(n, seconds int, seed int64) int {
	rawPath := filepath.Join("out", "aa.jsonl")
	exe, err := os.Executable()
	if err == nil {
		err = os.MkdirAll(filepath.Dir(rawPath), 0o755)
	}
	var raw *os.File
	if err == nil {
		raw, err = os.Create(rawPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -aa:", err)
		return 2
	}
	defer raw.Close()

	// values[set][workload][metric] is that set's n readings.
	var values [2]map[string]map[string][]float64
	for s := range values {
		values[s] = make(map[string]map[string][]float64)
		for _, w := range workloads {
			values[s][w.name] = make(map[string][]float64)
		}
	}
	failures := 0
	for i := 0; i < n; i++ {
		for s := 0; s < 2; s++ {
			runSeed := seed + int64(s*n+i)
			for _, w := range workloads {
				res, err := runChild(exe, w.name, runSeed, seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: -aa: %s seed %d: %v\n", w.name, runSeed, err)
					failures++
					continue
				}
				if !res.Correct {
					failures++
				}
				for name, m := range res.Metrics {
					values[s][w.name][name] = append(values[s][w.name][name], m.Value)
				}
				line, _ := json.Marshal(map[string]any{"set": string(rune('A' + s)), "workload": w.name, "seed": runSeed, "result": res})
				fmt.Fprintln(raw, string(line))
				fmt.Fprintf(os.Stderr, "aa: set %c run %d/%d %s done\n", 'A'+s, i+1, n, w.name)
			}
		}
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "A/A: 2 sets of %d runs, %d s timed phase, seeds %d..%d\n\n", n, seconds, seed, seed+int64(2*n)-1)
	fmt.Fprintln(out, "| workload | metric | median A | q1..q3 A | median B | q1..q3 B | B worse by | spread | bound | ok |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|---|---|---|---|")
	bad := 0
	for _, w := range workloads {
		for _, def := range endToEnd {
			a, b := values[0][w.name][def.Name], values[1][w.name][def.Name]
			if len(a) < 2 || len(b) < 2 {
				fmt.Fprintf(out, "| %s | %s | too few runs | | | | | | %.2f | NO |\n", w.name, def.Name, def.Bound)
				bad++
				continue
			}
			qa, qb := quartiles(a), quartiles(b)
			gap := (qb[1] - qa[1]) / qa[1]
			if def.Better == "higher" {
				gap = -gap
			}
			spread := math.Max((qa[2]-qa[0])/qa[1], (qb[2]-qb[0])/qb[1])
			// setup_s is exempt from the spread rule, not from the gap rule.
			ok := math.Abs(gap) <= def.Bound && (spread <= def.Bound || def.Name == mSetup.Name)
			verdict := "yes"
			if !ok {
				verdict = "NO"
				bad++
			}
			fmt.Fprintf(out, "| %s | %s | %s | %s..%s | %s | %s..%s | %+.2f%% | %.2f%% | %.0f%% | %s |\n",
				w.name, def.Name, sig(qa[1]), sig(qa[0]), sig(qa[2]), sig(qb[1]), sig(qb[0]), sig(qb[2]),
				100*gap, 100*spread, 100*def.Bound, verdict)
		}
	}
	fmt.Fprintf(out, "\n%d pairs outside their bound, %d failed runs; raw results in benchmark/%s\n", bad, failures, rawPath)
	if bad > 0 || failures > 0 {
		return 1
	}
	return 0
}

// runChild runs one untraced run in a fresh process, as the driver does, and
// parses the last line of its output.
func runChild(exe, workload string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("last line is not a result: %v", jerr)
	}
	return &res, nil
}

// quartiles returns the first, second and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is how the
// driver computes the spread.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// sig renders a value with four significant digits.
func sig(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }
