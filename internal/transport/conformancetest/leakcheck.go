package conformancetest

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// LeakCheck snapshots the fabric goroutines alive now and returns a function
// that fails the test if any are still running at the end (after a settling
// period for asynchronous teardown). Use as:
//
//	defer LeakCheck(t)()
//
// at the top of a test, before the fabric is built. Only goroutines parked
// inside this repository's packages are counted, so unrelated runtime or
// test-framework goroutines never trip it.
func LeakCheck(t *testing.T) func() {
	t.Helper()
	check := LeakCheckErr()
	return func() {
		t.Helper()
		if err := check(); err != nil {
			t.Error(err)
		}
	}
}

// LeakCheckErr is the testing-free form of LeakCheck, for drivers that are
// not tests (the scenario fuzzer runs it after every generated case, so a
// leaked dispatcher or session goroutine fails the oracle itself). It
// snapshots the repository goroutines alive now and returns a function that
// reports the ones still running when called, after the same settling period.
func LeakCheckErr() func() error {
	baseline := stacks()
	return func() error {
		deadline := time.Now().Add(2 * time.Second)
		var leaked []string
		for {
			leaked = leaked[:0]
			for _, s := range stacks() {
				if _, ok := baseline[goroutineID(s)]; !ok {
					leaked = append(leaked, s)
				}
			}
			if len(leaked) == 0 {
				return nil
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		return fmt.Errorf("%d fabric goroutines leaked:\n%s", len(leaked), strings.Join(leaked, "\n---\n"))
	}
}

// stacks returns the stack dumps of goroutines currently executing inside
// this repository, keyed for the baseline by goroutine id.
func stacks() map[string]string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	out := make(map[string]string)
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "repro/internal/") && !strings.Contains(g, "conformancetest.stacks") {
			out[goroutineID(g)] = g
		}
	}
	return out
}

// goroutineID extracts the "goroutine N" prefix of one stack dump.
func goroutineID(stack string) string {
	if i := strings.Index(stack, " ["); i > 0 {
		return stack[:i]
	}
	return stack
}
