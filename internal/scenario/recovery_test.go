package scenario

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
)

func TestRunBelatedAbortCompletes(t *testing.T) {
	out, err := RunBelated(core.AbortNestedActions, 20*time.Second)
	if err != nil {
		t.Fatalf("abort policy: %v", err)
	}
	if !out.Completed || out.Resolved != "ofault" {
		t.Errorf("outcome = %+v", out)
	}
}

func TestRunBelatedWaitTimesOut(t *testing.T) {
	_, err := RunBelated(core.WaitForNestedActions, 200*time.Millisecond)
	if !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("wait policy err = %v, want ErrTimeout", err)
	}
}

func TestRunForwardRecovery(t *testing.T) {
	res, err := RunForwardRecovery()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalState != "repaired" || res.Attempts != 1 {
		t.Errorf("result = %+v", res)
	}
}

func TestRunBackwardRecovery(t *testing.T) {
	res, err := RunBackwardRecovery()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalState != "alternate" || res.Attempts != 2 {
		t.Errorf("result = %+v", res)
	}
}
