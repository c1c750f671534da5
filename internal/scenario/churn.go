package scenario

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exception"
	"repro/internal/ident"
	"repro/internal/vclock"
)

// ChurnSpec parameterises a membership-churn workload: one persistent group
// that is repeatedly partitioned, healed and made whole again via the rejoin
// protocol (petition, quorum-leased view change, state transfer).
type ChurnSpec struct {
	// N is the group size.
	N int
	// Victims lists the object numbers (1-based) cut away each cycle. The
	// survivors must keep a strict majority of N. Default: {N}.
	Victims []int
	// Cycles is the number of partition/heal/rejoin cycles (>= 1).
	Cycles int
	// Lease is the quorum-lease term protecting the degraded view chooser
	// (0 disables leases).
	Lease time.Duration
	// Virtual runs the whole workload on an auto-advancing virtual clock;
	// detector timeouts and lease terms then cost virtual time only.
	Virtual bool
	// Timeout bounds each constituent run (default 30s).
	Timeout time.Duration
}

// ChurnResult reports a churn workload.
type ChurnResult struct {
	// Cycles is the number of cycles executed.
	Cycles int
	// Expelled and Rejoined count expulsions and readmissions across all
	// cycles (len(Victims) * Cycles each when every cycle converged).
	Expelled int
	Rejoined int
	// FinalEpoch is the persistent group's view epoch after the last cycle
	// (two view changes per cycle: expulsion and readmission).
	FinalEpoch uint64
	// PostHealResolved is the exception resolved by the final whole-group
	// run, proving the rejoined members participate in resolution again.
	PostHealResolved string
	// PostHealParticipants counts the rejoined members that saw the final
	// resolution (want len(Victims)).
	PostHealParticipants int
	// Elapsed is the wall-clock duration of the whole workload.
	Elapsed time.Duration
	// VirtualElapsed is how far the virtual clock moved (zero on the wall
	// clock): a function of the spec, the same on every run.
	VirtualElapsed time.Duration
}

// Validate checks the spec.
func (s ChurnSpec) Validate() error {
	if s.N < 3 {
		return errors.New("scenario: churn needs N >= 3 (a strict majority must survive the cut)")
	}
	if s.Cycles < 1 {
		return errors.New("scenario: Cycles must be >= 1")
	}
	if s.Lease < 0 || s.Timeout < 0 {
		return errors.New("scenario: Lease and Timeout must not be negative")
	}
	seen := make(map[int]bool, len(s.Victims))
	for _, v := range s.Victims {
		if v < 1 || v > s.N {
			return fmt.Errorf("scenario: victim %d out of range [1, %d]", v, s.N)
		}
		if seen[v] {
			return fmt.Errorf("scenario: victim %d listed twice", v)
		}
		seen[v] = true
	}
	victims := len(s.Victims)
	if victims == 0 {
		victims = 1
	}
	if survivors := s.N - victims; 2*survivors <= s.N {
		return errors.New("scenario: victims must leave a strict majority of N")
	}
	return nil
}

// RunChurn executes the churn workload: Cycles repetitions of a cut run (the
// victims are partitioned away, expelled by the surviving majority and the
// participant-failure exception resolved) followed by a rejoin run (the
// healed victims petition the persistent group, catch up via state transfer
// and re-enter the next view), then one final whole-group run that raises an
// application exception to prove the rejoined members resolve it too.
func RunChurn(spec ChurnSpec) (ChurnResult, error) {
	if err := spec.Validate(); err != nil {
		return ChurnResult{}, err
	}
	timeout := spec.Timeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	victims := spec.Victims
	if len(victims) == 0 {
		victims = []int{spec.N}
	}
	isVictim := make(map[ident.ObjectID]bool, len(victims))
	cut := make([]ident.ObjectID, len(victims))
	for i, v := range victims {
		cut[i] = ident.ObjectID(v)
		isVictim[ident.ObjectID(v)] = true
	}

	opts := core.Options{
		Membership: &core.MembershipOptions{
			Heartbeat: time.Millisecond,
			Timeout:   25 * time.Millisecond,
			Poll:      2 * time.Millisecond,
			Rejoin:    true,
			Lease:     spec.Lease,
		},
	}
	var virtual *vclock.Virtual // nil on the wall clock
	if spec.Virtual {
		virtual = vclock.NewVirtual()
		virtual.StartAuto()
		defer virtual.StopAuto()
		opts.Clock = virtual
	}
	sys := core.NewServer(opts)
	defer sys.Close()

	members := make([]ident.ObjectID, spec.N)
	for i := range members {
		members[i] = ident.ObjectID(i + 1)
	}
	var cutter ident.ObjectID // lowest survivor triggers each cut
	for _, m := range members {
		if !isVictim[m] {
			cutter = m
			break
		}
	}

	tree := exception.NewBuilder("omega").
		Add("exc-churn", "omega").
		Add(core.ExcParticipantFailure, "omega").
		MustBuild()
	noop := core.HandlerSet{Default: func(*core.RecoveryContext, exception.Exception) (string, error) {
		return "", nil
	}}
	handlers := make(map[ident.ObjectID]core.HandlerSet, spec.N)
	for _, m := range members {
		handlers[m] = noop
	}
	idle := func(ctx *core.Context) error {
		ctx.Sleep(time.Hour)
		return nil
	}
	whole := func() bool {
		v := sys.GroupView()
		for _, c := range cut {
			if !v.Contains(c) {
				return false
			}
		}
		return true
	}
	waitWhole := func(ctx *core.Context) error {
		for i := 0; i < 50000; i++ {
			if whole() {
				return nil
			}
			ctx.Sleep(2 * time.Millisecond)
		}
		return fmt.Errorf("victims never rejoined: %v", sys.GroupView())
	}

	var res ChurnResult
	start := time.Now()
	for cycle := 0; cycle < spec.Cycles; cycle++ {
		cutName := fmt.Sprintf("churn-%d", cycle)
		bodies := make(map[ident.ObjectID]core.Body, spec.N)
		for _, m := range members {
			bodies[m] = idle
		}
		bodies[cutter] = func(ctx *core.Context) error {
			ctx.Sleep(20 * time.Millisecond)
			if err := sys.Partition(cutName, cut...); err != nil {
				return err
			}
			ctx.Sleep(time.Hour)
			return nil
		}
		out, err := sys.RunTimeout(core.Definition{
			Spec:   core.ActionSpec{Name: cutName, Tree: tree, Members: members, Handlers: handlers},
			Bodies: bodies,
		}, timeout)
		if err != nil {
			return res, fmt.Errorf("cycle %d cut run: %w", cycle, withClock(err, virtual))
		}
		res.Expelled += len(out.Expelled)
		if out.Resolved != core.ExcParticipantFailure {
			return res, fmt.Errorf("cycle %d cut run resolved %q, want %q", cycle, out.Resolved, core.ExcParticipantFailure)
		}

		// The cut stands on the server's fabric until healed, run or no run.
		sys.HealPartition(cutName)
		bodies = make(map[ident.ObjectID]core.Body, spec.N)
		for _, m := range members {
			if isVictim[m] {
				bodies[m] = idle
			} else {
				bodies[m] = waitWhole
			}
		}
		out, err = sys.RunTimeout(core.Definition{
			Spec:   core.ActionSpec{Name: cutName + "-rejoin", Tree: tree, Members: members, Handlers: handlers},
			Bodies: bodies,
		}, timeout)
		if err != nil {
			return res, fmt.Errorf("cycle %d rejoin run: %w", cycle, withClock(err, virtual))
		}
		res.Rejoined += len(out.Rejoined)
		res.Cycles++
	}

	// Final whole-group run: the cutter raises; every member — including the
	// rejoined victims — must resolve it.
	bodies := make(map[ident.ObjectID]core.Body, spec.N)
	for _, m := range members {
		bodies[m] = idle
	}
	bodies[cutter] = func(ctx *core.Context) error {
		ctx.Sleep(5 * time.Millisecond)
		ctx.Raise("exc-churn")
		return nil
	}
	out, err := sys.RunTimeout(core.Definition{
		Spec:   core.ActionSpec{Name: "churn-postheal", Tree: tree, Members: members, Handlers: handlers},
		Bodies: bodies,
	}, timeout)
	if err != nil {
		return res, fmt.Errorf("post-heal run: %w", withClock(err, virtual))
	}
	res.PostHealResolved = out.Resolved
	for _, c := range cut {
		if out.PerObject[c].Resolved == out.Resolved && out.Resolved != "" {
			res.PostHealParticipants++
		}
	}
	res.FinalEpoch = sys.GroupView().Epoch
	res.Elapsed = time.Since(start)
	if virtual != nil {
		res.VirtualElapsed = virtual.Now().Sub(vclock.Epoch)
	}
	return res, nil
}
