package main

import (
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// runCaptured runs the command with os.Stdout redirected and returns what it
// printed.
func runCaptured(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r) // a failed read shows as missing output below
		printed <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	err = run(args)
	os.Stdout = stdout
	w.Close()
	out := <-printed
	r.Close()
	if err != nil {
		t.Fatalf("%v: %v\n%s", args, err, out)
	}
	return out
}

func TestRunBasicScenario(t *testing.T) {
	if err := run([]string{"-n", "3", "-p", "1", "-raise-delay", "1ms"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunNestedScenario(t *testing.T) {
	if err := run([]string{"-n", "4", "-p", "1", "-q", "2", "-depth", "2", "-raise-delay", "20ms"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBelatedWaitTimesOut(t *testing.T) {
	if err := run([]string{"-belated", "-policy", "wait", "-timeout", "200ms"}); err != nil {
		t.Fatal(err) // timeout is reported, not returned as an error
	}
}

func TestRunBelatedAbort(t *testing.T) {
	if err := run([]string{"-belated", "-policy", "abort"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadPolicy(t *testing.T) {
	if err := run([]string{"-policy", "nonsense"}); err == nil {
		t.Fatal("bad policy must error")
	}
}

func TestRunInvalidSpec(t *testing.T) {
	if err := run([]string{"-n", "0"}); err == nil {
		t.Fatal("invalid spec must error")
	}
}

// TestRunConcurrentHonoursLatency: the shared server must run on the network
// the flags describe. One raiser at N=3 resolves in Exception, ACK, Commit:
// three serial hops, so 20ms links put a floor of 60ms under the run (a lower
// bound, not a speed gate).
func TestRunConcurrentHonoursLatency(t *testing.T) {
	start := time.Now()
	if err := run([]string{"-concurrent", "2", "-n", "3", "-p", "1", "-latency", "20ms", "-raise-delay", "1ms"}); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < 60*time.Millisecond {
		t.Fatalf("two copies over 20ms links finished in %v, under the 60ms three hops take", got)
	}
}

// TestRunConcurrentHonoursVirtual: the shared server runs on the clock the
// flags describe too. On the virtual clock the three serial 200ms hops cost
// at least 600ms of virtual time, reported as the single-run mode reports it.
func TestRunConcurrentHonoursVirtual(t *testing.T) {
	out := runCaptured(t, "-concurrent", "2", "-n", "3", "-p", "1", "-latency", "200ms", "-raise-delay", "1ms", "-virtual")
	if !strings.Contains(out, "(transport=raw)") {
		t.Errorf("output does not name the transport by its flag:\n%s", out)
	}
	for _, l := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(l, "virtual-elapsed: "); ok {
			if d, err := time.ParseDuration(v); err != nil || d < 600*time.Millisecond {
				t.Fatalf("virtual-elapsed %q, want at least 600ms", v)
			}
			return
		}
	}
	t.Fatalf("no virtual-elapsed line:\n%s", out)
}

// TestRunConcurrentCensusPastTheRing: 600 copies of a nine-message action
// record some 25 000 events on the shared server, more than its log keeps,
// and the census line still reads (N-1)(2P+3Q+1) = 9 an action: a count never
// depends on a kept event.
func TestRunConcurrentCensusPastTheRing(t *testing.T) {
	out := runCaptured(t, "-concurrent", "600", "-n", "4", "-p", "1")
	for _, want := range []string{"agreement: 600/600 copies completed", "protocol messages: ACK=1800 Commit=1800 Exception=1800\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestRunProcsFlagIsGone(t *testing.T) {
	for _, flag := range []string{"-procs", "-lease"} {
		err := run([]string{flag})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: got %v, want a flag-parsing error", flag, err)
		}
	}
}

// verdictLines returns the lines of a -virtual run that are a function of the
// command line alone: the result line and the virtual time the run took. The
// wall-clock "elapsed:" line is left out.
func verdictLines(out string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "expelled") || strings.HasPrefix(l, "outcome:") ||
			strings.HasPrefix(l, "post-heal:") || strings.HasPrefix(l, "virtual-elapsed:") {
			lines = append(lines, l)
		}
	}
	return lines
}

// TestRunVirtualVerdictRepeats is the fuzzer's promise from the command line
// CI runs: one command, one verdict. Three churn cycles, and a partition run,
// on the virtual clock print the same result and take the same virtual time
// twice in a row.
func TestRunVirtualVerdictRepeats(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "5", "-churn", "3", "-virtual"},
		{"-n", "5", "-partition", "4,5", "-virtual"},                                    // the raise beats the cut
		{"-n", "5", "-p", "1", "-raise-delay", "30ms", "-partition", "4,5", "-virtual"}, // the cut beats the raise
		{"-n", "5", "-p", "0", "-partition", "4,5", "-virtual"},                         // nobody raises
	} {
		first := verdictLines(runCaptured(t, args...))
		second := verdictLines(runCaptured(t, args...))
		if len(first) < 2 || !strings.HasPrefix(first[len(first)-1], "virtual-elapsed: ") {
			t.Fatalf("%v printed verdict lines %q, want a result and a virtual-elapsed line", args, first)
		}
		if strings.Join(first, "\n") != strings.Join(second, "\n") {
			t.Errorf("%v: two runs, two verdicts:\n%s\n--- and ---\n%s", args,
				strings.Join(first, "\n"), strings.Join(second, "\n"))
		}
	}
	if out := runCaptured(t, "-n", "5", "-churn", "3", "-virtual"); !strings.Contains(out, "expelled=3 rejoined=3 final-epoch=6") {
		t.Errorf("-churn 3 printed\n%s\nwant expelled=3 rejoined=3 final-epoch=6", out)
	}
}
