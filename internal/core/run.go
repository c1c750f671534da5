package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/ident"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// ParticipantResult is one participating object's view of how the top-level
// action finished.
type ParticipantResult struct {
	Completed        bool
	Resolved         string
	Signalled        string
	AcceptanceFailed bool
	// Expelled is true when the membership service removed this participant
	// from the group — mid-run, or (in rejoin mode) in an earlier run whose
	// expulsion still stood when this run was admitted; its other result
	// fields are then meaningless.
	Expelled bool
	// Rejoined is true when the membership service readmitted this (expelled)
	// participant during the run: it re-entered the group's view and will
	// participate in subsequent actions.
	Rejoined bool
	// Snapshot is the state-transfer payload this participant installed from
	// its rejoin Welcome (a GroupSnapshot in rejoin mode), nil otherwise.
	Snapshot any
	Err      error
}

// Outcome aggregates a top-level CA-action run.
type Outcome struct {
	// Completed is true when the action finished (normally or after
	// successful forward recovery) for every participant.
	Completed bool
	// Resolved is the exception that was resolved and handled ("" when the
	// run saw no exception).
	Resolved string
	// Signalled is the failure exception the action's handlers signalled to
	// the caller ("" when none).
	Signalled string
	// AcceptanceFailed is true when the acceptance test rejected the result
	// (the transaction was aborted; backward recovery may retry).
	AcceptanceFailed bool
	// Expelled lists the members the membership service removed during the
	// run (empty without Options.Membership), sorted. Expelled members are
	// excluded from the Completed and disagreement aggregation: the
	// surviving majority's outcome is the action's outcome.
	Expelled []ident.ObjectID
	// Rejoined lists the members the membership service readmitted during
	// the run (rejoin mode only), sorted. A rejoined member caught up via
	// state transfer and participates in subsequent actions.
	Rejoined []ident.ObjectID
	// PerObject holds each participant's view.
	PerObject map[ident.ObjectID]ParticipantResult
}

// Run errors.
var (
	// ErrTimeout reports that RunTimeout's deadline expired; the run was
	// cancelled.
	ErrTimeout = errors.New("core: run timed out")
	// ErrDisagreement reports that participants finished with inconsistent
	// outcomes — a protocol-invariant violation.
	ErrDisagreement = errors.New("core: participants disagree on the outcome")
)

// Record is one top-level action's event history, nested actions included:
// what its members' engines, bodies and sends recorded, merged in sequence
// order. Each participant keeps its share in a buffer of its own, so
// recording takes no lock another action shares and the server keeps no
// history; a run that fails after its members joined returns the record in
// its RunError.
type Record struct {
	Events []trace.Event
	// Lost counts the events that found a member's buffer full (recordCap
	// events per member), which Events therefore lacks.
	Lost int
}

// String renders the record one event per line, then what it lost.
func (rec Record) String() string {
	var b strings.Builder
	for _, e := range rec.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	if rec.Lost > 0 {
		fmt.Fprintf(&b, "(%d events lost: a member's buffer was full)\n", rec.Lost)
	}
	return b.String()
}

// RunError is the error of a run that failed after its members joined: it
// timed out, a body failed, or the members disagree. It reads and unwraps as
// Err, so errors.Is(err, ErrTimeout) holds, and carries the action's Record.
type RunError struct {
	Err    error
	Record Record
}

func (e *RunError) Error() string { return e.Err.Error() }

// Unwrap returns the run's error.
func (e *RunError) Unwrap() error { return e.Err }

// Run executes a top-level CA action to completion. It is a thin wrapper
// over the shared runtime: the action is admitted (blocking or failing per
// the overload policy), multiplexed over the server's shared transports, and
// any number of Runs may execute concurrently on one server.
func (s *Server) Run(def Definition) (Outcome, error) {
	if err := s.admit(); err != nil {
		return Outcome{}, err
	}
	defer s.release()
	return s.runAttempt(def, 0, 1)
}

// RunTimeout executes a top-level CA action, cancelling the run if it does
// not complete within d (used, e.g., to demonstrate that the
// wait-for-nested-actions policy can block forever on belated participants).
func (s *Server) RunTimeout(def Definition, d time.Duration) (Outcome, error) {
	if err := s.admit(); err != nil {
		return Outcome{}, err
	}
	defer s.release()
	return s.runAttempt(def, d, 1)
}

func (s *Server) runAttempt(def Definition, timeout time.Duration, attempt int) (Outcome, error) {
	if err := def.Validate(); err != nil {
		return Outcome{}, err
	}
	if err := s.validateMembership(&def); err != nil {
		return Outcome{}, err
	}
	if _, real := s.clk.(vclock.Real); s.opts.Transport == TransportTCP && !real {
		return Outcome{}, errors.New("core: TransportTCP runs on the real clock only: bytes in the kernel cannot be counted")
	}
	// Set-up and tear-down are work the clock waits for (or it could fire 25 ms
	// of heartbeats while participant 4 of 5 is being built), as the bodies are.
	s.clk.Hold(vclock.Run)
	defer s.clk.Release(vclock.Run)
	r := newRun(s, &def.Spec, attempt)
	if s.opts.Membership != nil && s.opts.Membership.Rejoin {
		// Admission: members the persistent group expelled in earlier runs
		// stay out of this action's frames until they rejoin (view synchrony
		// admits them to the next action, never a half-entered one). Their
		// participants still start — detector, monitor and session route — so
		// their rejoin petitions can flow during the run.
		s.ensureGroup(def.Spec.Members)
		r.preExpelled = s.excludedOf(def.Spec.Members)
		if len(r.preExpelled) > 0 {
			r.expelled = make(map[ident.ObjectID]bool, len(r.preExpelled))
			for obj := range r.preExpelled {
				r.expelled[obj] = true
			}
		}
	}
	r.top.init(r, &r.spec, r.members, nil, s.store.Begin())
	slab := r.top.slab // r.members' participants, in order

	for k, obj := range r.members {
		p, err := r.join(obj)
		if err != nil {
			r.cancel()
			for j := range slab[:k] {
				slab[j].ctx.p.stop()
				s.recycle(slab[j].ctx.p)
			}
			return Outcome{}, fmt.Errorf("participant %s: %w", obj, err)
		}
		r.mu.Lock() // a member's monitor may already be expelling
		slab[k].ctx = Context{p: p, inst: &r.top}
		r.mu.Unlock()
	}

	var deadline vclock.Handle
	if timeout > 0 {
		// On a virtual clock a 30s timeout costs no wall-clock time.
		deadline = s.clk.AfterFunc(timeout, func() {
			r.timedOut.Store(true)
			r.cancel()
		})
	}

	// Out of the group at admission: no body, no frames; the participant's
	// membership machinery still runs (started in join), so the member can
	// petition and rejoin.
	bodies := len(r.members) - len(r.preExpelled)
	r.live.Store(int32(bodies))
	r.exited.Add(1)
	for k, obj := range r.members {
		if !r.preExpelled[obj] {
			s.clk.Hold(vclock.Body)
			s.spawn(task{op: taskBody, p: slab[k].ctx.p, body: def.Bodies[obj]})
		}
	}
	if bodies > 0 {
		s.clk.Release(vclock.Run)
		r.exited.Wait() // the last body took the token back for us
	}
	// A deadline that has fired may still be cancelling r's participants:
	// none of them goes back to the pool then.
	reuse := deadline == nil || deadline.Stop()

	for k := range slab {
		slab[k].ctx.p.stop()
	}

	r.mu.Lock()
	// Every participant has stopped: no more expulsions or installs.
	expelled, snapshots := r.expelled, r.snapshots
	r.mu.Unlock()

	results := make(map[ident.ObjectID]ParticipantResult, len(r.members))
	out := Outcome{Completed: true, PerObject: results}
	var firstErr error
	for k, obj := range r.members {
		res := slab[k].ctx.p.result
		if expelled[obj] {
			// The member was removed by the membership service; the
			// survivors' outcome stands regardless of how its body unwound.
			res.Expelled = true
			res.Err = nil
			if snap, ok := snapshots[obj]; ok {
				res.Rejoined = true
				res.Snapshot = snap
				out.Rejoined = append(out.Rejoined, obj) // members is sorted
			}
			results[obj] = res
			out.Expelled = append(out.Expelled, obj) // members is sorted
			continue
		}
		results[obj] = res
		if res.Err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", obj, res.Err)
		}
		if !res.Completed {
			out.Completed = false
		}
		if res.AcceptanceFailed {
			out.AcceptanceFailed = true
		}
		if res.Resolved != "" {
			if out.Resolved != "" && out.Resolved != res.Resolved && firstErr == nil {
				firstErr = fmt.Errorf("%w: resolved %q vs %q", ErrDisagreement, out.Resolved, res.Resolved)
			}
			out.Resolved = res.Resolved
		}
		if res.Signalled != "" {
			if out.Signalled != "" && out.Signalled != res.Signalled && firstErr == nil {
				firstErr = fmt.Errorf("%w: signalled %q vs %q", ErrDisagreement, out.Signalled, res.Signalled)
			}
			out.Signalled = res.Signalled
		}
	}
	if r.timedOut.Load() {
		firstErr = ErrTimeout
	}
	if firstErr != nil {
		// Before the participants go back to the pool, which empties them.
		firstErr = &RunError{Err: firstErr, Record: r.record()}
	}
	if reuse {
		for k := range slab {
			s.recycle(slab[k].ctx.p)
		}
	}
	if s.opts.Membership != nil && s.opts.Membership.Rejoin && out.Resolved != "" {
		s.appendHistory(out.Resolved)
	}
	return out, firstErr
}

// record merges the members' shares of the run's record by sequence. Every
// participant has stopped and every body has returned, so nothing writes
// them any more; emu orders this read after the last write.
func (r *run) record() Record {
	var rec Record
	for k := range r.top.slab {
		p := r.top.slab[k].ctx.p
		p.emu.Lock()
		rec.Events = append(rec.Events, p.events...)
		rec.Lost += p.lost
		p.emu.Unlock()
	}
	slices.SortFunc(rec.Events, func(a, b trace.Event) int { return cmp.Compare(a.Seq, b.Seq) })
	return rec
}

// runBody runs a participant's body on a pool worker. It holds the clock
// token runAttempt took for it from spawn to return, and the last of a run's
// bodies to return wakes runAttempt, holding its token for it.
//
//caa:noalloc
func (p *participant) runBody(body Body) {
	r := p.run
	p.result = p.runTop(body)
	if r.live.Add(-1) == 0 {
		r.sys.clk.Hold(vclock.Run)
		r.exited.Done()
	}
	r.sys.clk.Release(vclock.Body)
}

// runTop is the body-goroutine entry: it runs the scope machinery of the
// top-level action (entered by run.join) and converts sentinels and
// results into a ParticipantResult.
func (p *participant) runTop(body Body) (res ParticipantResult) {
	defer p.markBodyDone()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(sentinel); ok {
				// Only cancellation sentinels can reach level -1.
				if p.isExpelled() {
					res = ParticipantResult{Expelled: true}
					return
				}
				res = ParticipantResult{Err: ErrCancelled}
				return
			}
			panic(r)
		}
	}()
	if lvl := p.suspension(); lvl == levelCancelled {
		// Cancelled (or expelled) before the body started: it never runs.
		panic(sentinel{level: lvl})
	}
	nres, err := p.runScope(&p.run.top.member(p.obj).ctx, body)
	if err != nil {
		return ParticipantResult{Err: err}
	}
	return ParticipantResult{
		Completed:        nres.Completed || (nres.Resolved != "" && nres.Signalled == "" && !nres.AcceptanceFailed),
		Resolved:         nres.Resolved,
		Signalled:        nres.Signalled,
		AcceptanceFailed: nres.AcceptanceFailed,
	}
}

// Attempt describes one backward-recovery attempt: the bodies to run (the
// primary "try block" or an alternate, as in recovery blocks).
type Attempt map[ident.ObjectID]Body

// RecoveryOutcome reports a RunWithRecovery execution.
type RecoveryOutcome struct {
	Outcome
	// Attempts is the number of attempts executed (1 = primary succeeded).
	Attempts int
}

// RunWithRecovery provides conversation-style backward error recovery
// (Figure 2(b)): it runs the primary bodies and, whenever the acceptance
// test fails or the action signals a failure exception (the transaction
// having been aborted, restoring the external atomic objects), retries with
// the next alternate. It returns the first passing outcome, or the last
// failing one when every alternate is exhausted.
func (s *Server) RunWithRecovery(def Definition, alternates []Attempt) (RecoveryOutcome, error) {
	if err := s.admit(); err != nil {
		return RecoveryOutcome{}, err
	}
	defer s.release()
	attempts := 1 + len(alternates)
	var (
		out Outcome
		err error
	)
	for i := 0; i < attempts; i++ {
		attemptDef := def
		if i > 0 {
			attemptDef.Bodies = alternates[i-1]
		}
		out, err = s.runAttempt(attemptDef, 0, i+1)
		if err != nil {
			return RecoveryOutcome{Outcome: out, Attempts: i + 1}, err
		}
		if !out.AcceptanceFailed && out.Signalled == "" {
			return RecoveryOutcome{Outcome: out, Attempts: i + 1}, nil
		}
	}
	return RecoveryOutcome{Outcome: out, Attempts: attempts}, nil
}
