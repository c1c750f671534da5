package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/exception"
	"repro/internal/ident"
	"repro/internal/trace"
)

// TestContextNoteAndAction: a note from a body is recorded in its action's
// record with the right object and action, and a run that fails returns it.
func TestContextNoteAndAction(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1}
	var actionID ident.ActionID
	failed := errors.New("failed after noting")
	def := Definition{
		Spec: ActionSpec{
			Name: "noted", Tree: testTree("f"), Members: members,
			Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error {
				actionID = ctx.Action()
				ctx.Note("progress", "step-1")
				return failed
			},
		},
	}
	_, err := sys.Run(def)
	if !errors.Is(err, failed) {
		t.Fatalf("err = %v, want the body's error", err)
	}
	found := false
	for _, ev := range runRecord(t, err).Events {
		if ev.Kind == trace.EvNote && ev.Label == "progress" && ev.Detail == "step-1" &&
			ev.Object == 1 && ev.Action == actionID {
			found = true
		}
	}
	if !found {
		t.Errorf("Note event not recorded:\n%s", recordOf(err))
	}
	if actionID == 0 {
		t.Error("Action() returned zero")
	}
}

// TestTxnViewUpdateInHandler: handlers can use Update on the recovery view.
func TestTxnViewUpdateInHandler(t *testing.T) {
	sys := newTestSystem(t)
	seed := sys.Store().Begin()
	if err := seed.Write("n", 10); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	members := []ident.ObjectID{1}
	def := Definition{
		Spec: ActionSpec{
			Name: "upd", Tree: testTree("f"), Members: members,
			Handlers: map[ident.ObjectID]HandlerSet{1: {
				Default: func(rctx *RecoveryContext, _ exception.Exception) (string, error) {
					return "", rctx.View.Update("n", func(v any) (any, error) {
						return v.(int) * 2, nil
					})
				},
			}},
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error { ctx.Raise("f"); return nil },
		},
	}
	out, err := sys.Run(def)
	if err != nil || !out.Completed {
		t.Fatalf("outcome %+v err %v", out, err)
	}
	if got := sys.Store().Snapshot()["n"]; got != 20 {
		t.Errorf("n = %v, want 20", got)
	}
}

// TestValidationMessagesAreInformative: the error text names the action and
// the missing piece, for debuggability.
func TestValidationMessagesAreInformative(t *testing.T) {
	def := Definition{Spec: ActionSpec{Name: "payroll", Tree: testTree("f"),
		Members: []ident.ObjectID{7}}}
	err := def.Validate()
	if err == nil {
		t.Fatal("want error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "payroll") || !strings.Contains(msg, "O7") {
		t.Errorf("unhelpful error: %q", msg)
	}
}

// TestHandlerSetLookup covers explicit, default and missing lookups.
func TestHandlerSetLookup(t *testing.T) {
	named := func(*RecoveryContext, exception.Exception) (string, error) { return "", nil }
	hs := HandlerSet{ByName: map[string]Handler{"e": named}}
	if _, ok := hs.Lookup("e"); !ok {
		t.Error("named handler not found")
	}
	if _, ok := hs.Lookup("other"); ok {
		t.Error("missing handler reported found")
	}
	hs.Default = named
	if _, ok := hs.Lookup("other"); !ok {
		t.Error("default handler not used")
	}
}

// TestOutcomePerObjectViews: outcome carries per-object results.
func TestOutcomePerObjectViews(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1, 2}
	def := Definition{
		Spec: ActionSpec{
			Name: "views", Tree: testTree("f"), Members: members,
			Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error { ctx.Raise("f"); return nil },
			2: func(ctx *Context) error { ctx.Sleep(time.Hour); return nil },
		},
	}
	out, err := sys.Run(def)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PerObject) != 2 {
		t.Fatalf("PerObject = %v", out.PerObject)
	}
	for obj, res := range out.PerObject {
		if res.Resolved != "f" || !res.Completed || res.Err != nil {
			t.Errorf("%s result = %+v", obj, res)
		}
	}
}

// TestRunWithRecoveryPropagatesHardErrors: a body programming error is not
// retried.
func TestRunWithRecoveryPropagatesHardErrors(t *testing.T) {
	sys := newTestSystem(t)
	members := []ident.ObjectID{1}
	boom := errors.New("bug")
	def := Definition{
		Spec: ActionSpec{
			Name: "hard", Tree: testTree("f"), Members: members,
			Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
		},
		Bodies: map[ident.ObjectID]Body{
			1: func(ctx *Context) error { return boom },
		},
	}
	rec, err := sys.RunWithRecovery(def, []Attempt{{
		1: func(ctx *Context) error { return nil },
	}})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the body error", err)
	}
	if rec.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (no retry on programming errors)", rec.Attempts)
	}
}
