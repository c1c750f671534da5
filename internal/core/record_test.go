package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/exception"
	"repro/internal/ident"
	"repro/internal/trace"
)

// recordOf renders the record a failed run's error carries, for test
// failure messages.
func recordOf(err error) string {
	var re *RunError
	if !errors.As(err, &re) {
		return "(no record)"
	}
	return re.Record.String()
}

// runRecord returns the record err carries, failing the test if it carries
// none.
func runRecord(t *testing.T, err error) Record {
	t.Helper()
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error %v (%T) carries no record", err, err)
	}
	return re.Record
}

// TestActionRecordOnTimeout: a RunTimeout that expires while O2's handler
// runs returns the action's record. It holds the resolution in sequence
// order (both enters, O1's raise, the Exception and ACK each sent and
// received, the chooser's commit-chosen) and no event of an action that ran
// concurrently over the same objects.
func TestActionRecordOnTimeout(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1, 2}
	inHandler, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	var stuckID, otherID ident.ActionID
	blocking := HandlerSet{Default: func(*RecoveryContext, exception.Exception) (string, error) {
		close(inHandler)
		<-release
		return "", nil
	}}
	stuck := Definition{
		Spec: ActionSpec{
			Name: "stuck", Tree: testTree("E1"), Members: members,
			Handlers: map[ident.ObjectID]HandlerSet{1: defaultOnly(noopHandler), 2: blocking},
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error { stuckID = ctx.Action(); ctx.Raise("E1"); return nil },
			2: func(*Context) error { return nil },
		},
	}
	other := Definition{
		Spec: ActionSpec{
			Name: "other", Tree: testTree("E1"), Members: members,
			Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error { otherID = ctx.Action(); ctx.Raise("E1"); return nil },
			2: func(*Context) error { return nil },
		},
	}
	done := make(chan error, 1)
	go func() {
		_, err := sys.RunTimeout(stuck, 100*time.Millisecond)
		done <- err
	}()
	<-inHandler
	if out, err := sys.Run(other); err != nil || !out.Completed {
		t.Fatalf("concurrent action: out=%+v err=%v", out, err)
	}
	err := <-done
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	rec := runRecord(t, err)
	if rec.Lost != 0 {
		t.Errorf("Lost = %d, want 0", rec.Lost)
	}
	want := []trace.Event{
		{Kind: trace.EvEnter, Object: 1},
		{Kind: trace.EvEnter, Object: 2},
		{Kind: trace.EvRaise, Object: 1, Label: "E1"},
		{Kind: trace.EvSend, Object: 1, Peer: 2, Label: "Exception"},
		{Kind: trace.EvRecv, Object: 2, Peer: 1, Label: "Exception"},
		{Kind: trace.EvSend, Object: 2, Peer: 1, Label: "ACK"},
		{Kind: trace.EvRecv, Object: 1, Peer: 2, Label: "ACK"},
		{Kind: trace.EvCommitChosen, Object: 1, Label: "E1"},
	}
	matches := func(ev, w trace.Event) bool {
		return ev.Kind == w.Kind && ev.Object == w.Object && ev.Peer == w.Peer && ev.Action == stuckID &&
			(w.Label == "" || ev.Label == w.Label)
	}
	next := 0
	for i, ev := range rec.Events {
		if i > 0 && ev.Seq <= rec.Events[i-1].Seq {
			t.Fatalf("record out of sequence at %d: #%d after #%d\n%s", i, ev.Seq, rec.Events[i-1].Seq, rec)
		}
		if ev.Action == otherID {
			t.Fatalf("record holds an event of the concurrent action %s: %v\n%s", otherID, ev, rec)
		}
		if next < len(want) && matches(ev, want[next]) {
			next++
		}
	}
	if next < len(want) {
		t.Errorf("record lacks, in order, %v (kind, object, peer, label) of action %s:\n%s", want[next], stuckID, rec)
	}
}

// TestActionRecordOverflow: a member that records more than recordCap events
// in one run keeps the first recordCap of them and reports the rest as lost.
func TestActionRecordOverflow(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1, 2}
	const notes = recordCap + 10
	failed := errors.New("failed after noting")
	def := Definition{
		Spec: ActionSpec{
			Name: "chatty", Tree: testTree("E1"), Members: members,
			Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error {
				for i := 0; i < notes; i++ {
					ctx.Note("chatter", fmt.Sprint(i))
				}
				return failed
			},
			2: func(*Context) error { return nil },
		},
	}
	_, err := sys.Run(def)
	if !errors.Is(err, failed) {
		t.Fatalf("err = %v, want the body's error", err)
	}
	rec := runRecord(t, err)
	kept, first, last := 0, false, false
	for _, ev := range rec.Events {
		if ev.Object != 1 {
			continue
		}
		kept++
		if ev.Label == "chatter" {
			first = first || ev.Detail == "0"
			last = last || ev.Detail == fmt.Sprint(notes-1)
		}
	}
	if kept != recordCap {
		t.Errorf("O1 kept %d events, want the cap %d", kept, recordCap)
	}
	// O1 entered, then noted: at least the notes past the cap are lost.
	if rec.Lost < notes-recordCap+1 {
		t.Errorf("Lost = %d, want at least %d", rec.Lost, notes-recordCap+1)
	}
	if !first || last {
		t.Errorf("kept the first note: %v, the last: %v; want the earliest events kept", first, last)
	}
	if s := rec.String(); !strings.Contains(s, fmt.Sprintf("%d events lost", rec.Lost)) {
		t.Errorf("String() does not report the loss:\n%s", s)
	}
}
