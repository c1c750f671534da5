// Package scenario holds the hand-written workloads of the paper's figures that
// need handler bodies the fuzz grammar (scengen.Program) cannot yet express:
// Figure 1's belated participant and Figure 2's forward and backward
// recovery. The §4.4 measurement workloads are scengen presets.
package scenario

import (
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/exception"
	"repro/internal/ident"
)

// RunBelated executes the Figure 1 comparison workload: O1 raises in the
// containing action while O2 is inside a nested action waiting for the
// belated O3, which never enters. Under AbortNestedActions the run
// completes; under WaitForNestedActions it cannot make progress and the
// timeout cancels it (returning core.ErrTimeout).
func RunBelated(policy core.NestedPolicy, timeout time.Duration) (core.Outcome, error) {
	sys := core.NewServer(core.Options{})
	defer sys.Close()

	members := []ident.ObjectID{1, 2, 3}
	inner := []ident.ObjectID{2, 3}
	noop := core.HandlerSet{Default: func(*core.RecoveryContext, exception.Exception) (string, error) {
		return "", nil
	}}
	handlers := func(objs []ident.ObjectID) map[ident.ObjectID]core.HandlerSet {
		out := make(map[ident.ObjectID]core.HandlerSet, len(objs))
		for _, o := range objs {
			out[o] = noop
		}
		return out
	}
	nested := &core.ActionSpec{
		Name: "inner", Tree: exception.NewBuilder("ifault").MustBuild(),
		Members: inner, Handlers: handlers(inner),
	}
	def := core.Definition{
		Spec: core.ActionSpec{
			Name: "outer", Tree: exception.NewBuilder("ofault").MustBuild(),
			Members: members, Handlers: handlers(members), Policy: policy,
		},
		Bodies: map[ident.ObjectID]core.Body{
			1: func(ctx *core.Context) error {
				ctx.Sleep(5 * time.Millisecond)
				ctx.Raise("ofault")
				return nil
			},
			2: func(ctx *core.Context) error {
				_, err := ctx.Enclose(nested, func(nctx *core.Context) error {
					nctx.Sleep(time.Hour)
					return nil
				})
				return err
			},
			3: func(ctx *core.Context) error {
				ctx.Sleep(time.Hour) // belated: never enters the nested action
				return nil
			},
		},
	}
	return sys.RunTimeout(def, timeout)
}

// RecoveryResult reports the Figure 2 experiments.
type RecoveryResult struct {
	// Attempts is the number of attempts used (backward recovery only).
	Attempts int
	// FinalState classifies the committed state of the atomic object:
	// "repaired" (forward recovery wrote a new valid state), "alternate"
	// (backward recovery's alternate committed), or the raw value.
	FinalState string
}

// RunForwardRecovery exercises Figure 2(a): a body corrupts an atomic object
// and raises; the resolved handler repairs the object into a new valid state
// which then commits — no rollback.
func RunForwardRecovery() (RecoveryResult, error) {
	sys := core.NewServer(core.Options{})
	defer sys.Close()

	seed := sys.Store().Begin()
	if err := seed.Write("state", "initial"); err != nil {
		return RecoveryResult{}, err
	}
	if err := seed.Commit(); err != nil {
		return RecoveryResult{}, err
	}

	members := []ident.ObjectID{1, 2}
	repair := core.HandlerSet{Default: func(rctx *core.RecoveryContext, _ exception.Exception) (string, error) {
		if rctx.Object == 1 {
			if err := rctx.View.Write("state", "repaired"); err != nil {
				return "", err
			}
		}
		return "", nil
	}}
	def := core.Definition{
		Spec: core.ActionSpec{
			Name: "forward", Tree: exception.NewBuilder("fault").MustBuild(),
			Members:  members,
			Handlers: map[ident.ObjectID]core.HandlerSet{1: repair, 2: repair},
		},
		Bodies: map[ident.ObjectID]core.Body{
			1: func(ctx *core.Context) error {
				if err := ctx.Write("state", "corrupt"); err != nil {
					return err
				}
				ctx.Raise("fault")
				return nil
			},
			2: func(ctx *core.Context) error { ctx.Sleep(time.Hour); return nil },
		},
	}
	out, err := sys.Run(def)
	if err != nil {
		return RecoveryResult{}, err
	}
	if !out.Completed {
		return RecoveryResult{}, errors.New("scenario: forward recovery did not complete")
	}
	v := sys.Store().Snapshot()["state"]
	s, _ := v.(string)
	return RecoveryResult{Attempts: 1, FinalState: s}, nil
}

// RunBackwardRecovery exercises Figure 2(b): the primary attempt fails the
// acceptance test, its transaction aborts (the object rolls back), and the
// alternate attempt commits.
func RunBackwardRecovery() (RecoveryResult, error) {
	sys := core.NewServer(core.Options{})
	defer sys.Close()

	seed := sys.Store().Begin()
	if err := seed.Write("state", "initial"); err != nil {
		return RecoveryResult{}, err
	}
	if err := seed.Commit(); err != nil {
		return RecoveryResult{}, err
	}

	members := []ident.ObjectID{1, 2}
	noop := core.HandlerSet{Default: func(*core.RecoveryContext, exception.Exception) (string, error) {
		return "", nil
	}}
	def := core.Definition{
		Spec: core.ActionSpec{
			Name: "backward", Tree: exception.NewBuilder("fault").MustBuild(),
			Members:  members,
			Handlers: map[ident.ObjectID]core.HandlerSet{1: noop, 2: noop},
			AcceptanceTest: func(view *core.TxnView) bool {
				v, err := view.Read("state")
				return err == nil && v != "primary"
			},
		},
		Bodies: map[ident.ObjectID]core.Body{
			1: func(ctx *core.Context) error { return ctx.Write("state", "primary") },
			2: func(ctx *core.Context) error { return nil },
		},
	}
	alternate := core.Attempt{
		1: func(ctx *core.Context) error { return ctx.Write("state", "alternate") },
		2: func(ctx *core.Context) error { return nil },
	}
	rec, err := sys.RunWithRecovery(def, []core.Attempt{alternate})
	if err != nil {
		return RecoveryResult{}, err
	}
	v := sys.Store().Snapshot()["state"]
	s, _ := v.(string)
	return RecoveryResult{Attempts: rec.Attempts, FinalState: s}, nil
}
