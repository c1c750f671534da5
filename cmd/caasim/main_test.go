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
	err := run([]string{"-procs"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("-procs: got %v, want a flag-parsing error", err)
	}
}
