package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/atomicobj"
	"repro/internal/ident"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// sentinel is the panic value used internally to terminate body frames when
// an exception resolution takes over (the termination model: "handlers take
// over the duties of participating objects"). level is the stack level of
// the action where the resolution runs; levelCancelled unwinds everything.
type sentinel struct {
	level int
}

// NestedResult reports how a nested CA action (entered with Enclose)
// finished for this participant.
type NestedResult struct {
	// Completed is true when the action finished, normally or after
	// successful forward recovery.
	Completed bool
	// Resolved is the resolved exception whose handlers recovered the
	// action ("" when no exception was raised).
	Resolved string
	// Signalled is the failure exception the action signalled to its
	// containing context. Only ever non-empty for the outermost action (a
	// nested action's signal is raised in the containing action instead of
	// being returned).
	Signalled string
	// AcceptanceFailed is true when the action's acceptance test rejected
	// the result; its transaction was aborted.
	AcceptanceFailed bool
}

// Context is a participating object's interface to the CA-action runtime
// within one action. Contexts are goroutine-local to the body; a nested
// Enclose call passes a child context for the nested action.
//
// Bodies must be cooperative: long computations should call Checkpoint
// periodically, and waits should go through Sleep/Await, so that exception
// resolution can interrupt them (the runtime never preempts a body).
type Context struct {
	p     *participant
	inst  *instance
	level int
}

// Object returns this participant's identifier.
func (c *Context) Object() ident.ObjectID { return c.p.obj }

// Attempt returns the backward-recovery attempt number this body runs in
// (1 = the primary; 2.. = alternates via RunWithRecovery). Bodies can use it
// to pick degraded algorithms, in the style of recovery blocks.
func (c *Context) Attempt() int { return c.p.run.attempt }

// Action returns the identifier of the action this context belongs to.
func (c *Context) Action() ident.ActionID { return c.inst.id }

// Checkpoint is an interruption point: if an exception resolution covering
// this action is in progress, the body frame terminates (by panicking with
// an internal sentinel that the runtime recovers).
func (c *Context) Checkpoint() {
	if lvl := c.p.suspension(); lvl <= c.level {
		panic(sentinel{level: lvl})
	}
}

// Raise raises an exception in this action and terminates the body frame
// (termination model). It never returns. If a resolution is already in
// progress the raise is subsumed by it, exactly as in the protocol engine.
func (c *Context) Raise(name string) {
	c.p.raise(c.level, name) // a dropped raise is fine: a resolution is under way
	lvl := c.p.suspension()
	if lvl > c.level {
		lvl = c.level
	}
	panic(sentinel{level: lvl})
}

// Sleep pauses the body, remaining responsive to suspension. The deadline
// runs on the server's clock seam, so bodies sleeping on a virtual clock
// wake as soon as time advances past them.
func (c *Context) Sleep(d time.Duration) {
	p := c.p
	var due atomic.Bool
	p.pending.Add(1) // until the deadline is stopped, or has fired and woken p
	deadline := p.run.sys.clk.AfterFunc(d, func() {
		due.Store(true)
		p.wakeBody()
		p.pending.Add(-1)
	})
	defer func() {
		if deadline.Stop() {
			p.pending.Add(-1)
		}
	}()
	p.wait(c.level, due.Load, nil)
}

// Await blocks until ch is readable (or closed), remaining responsive to
// suspension. It returns the received value and false when ch was closed. A
// sender on ch is not counted on the server's clock: a virtual one may move
// between the send and the body's next step.
func (c *Context) Await(ch <-chan any) (any, bool) {
	return c.p.wait(c.level, nil, ch)
}

// wait parks the body until done reports true or ch yields (either may be
// nil). It is the one place a body gives its clock token up and, with resume,
// gets it back: a waker holds it on the body's behalf before it signals, and a
// body released by ch, which the clock does not count, takes it back itself. A
// suspension at level or outside it, present or arriving, terminates the frame
// instead, by the sentinel panic. Whatever makes done true or lowers the
// suspension level calls wakeBody after it has.
func (p *participant) wait(level int, done func() bool, ch <-chan any) (any, bool) {
	for {
		p.state.Store(bodyParked)
		if lvl := p.suspension(); lvl <= level {
			p.resume(false)
			panic(sentinel{level: lvl})
		}
		if done != nil && done() {
			p.resume(false)
			return nil, false
		}
		p.run.sys.clk.Release(vclock.Body)
		select {
		case <-p.wake:
			p.state.Store(bodyRunning)
		case v, ok := <-ch:
			p.resume(true)
			return v, ok
		}
	}
}

// Read reads an external atomic object within this action's transaction.
func (c *Context) Read(key string) (any, error) {
	c.Checkpoint()
	return c.inst.txnRead(key)
}

// Write writes an external atomic object within this action's transaction.
func (c *Context) Write(key string, value any) error {
	c.Checkpoint()
	return c.inst.txnWrite(key, value)
}

// Update applies f to an external atomic object within this action's
// transaction.
func (c *Context) Update(key string, f func(any) (any, error)) error {
	c.Checkpoint()
	return c.inst.txnUpdate(key, f)
}

// Add increments an external atomic object on the commutativity fast path:
// the delta joins the object's pending log without taking its lock, so
// concurrent actions incrementing the same counter never conflict. The
// delta becomes visible when the action's transaction commits and is
// discarded exactly if it aborts.
func (c *Context) Add(key string, delta int) error {
	c.Checkpoint()
	return c.inst.txnAdd(key, delta)
}

// Apply applies a typed operation to an external atomic object. Operations
// whose commutativity class admits it (AddOp, InsertOp) ride the lock-free
// fast path; ReadWrite operations (UpdateOp) coordinate through 2PL like
// Update.
func (c *Context) Apply(key string, op atomicobj.Op) error {
	c.Checkpoint()
	return c.inst.txnApply(key, op)
}

// Note records a free-form event in the action's record (and in
// Options.Trace, when set), useful in examples and tests.
func (c *Context) Note(label, detail string) {
	p := c.p
	p.emu.Lock()
	p.hookLog(trace.Event{
		Kind: trace.EvNote, Object: p.obj, Action: c.inst.id,
		Label: label, Detail: detail,
	})
	p.emu.Unlock()
}

// Enclose enters the nested CA action described by spec (every member passes
// the same *ActionSpec; this object must be one of spec's members), runs
// body inside it, and coordinates its completion: the synchronous leave
// barrier, the nested transaction commit, exception resolution, and — if the
// nested action's handlers signal a failure exception — its propagation into
// this (containing) action.
//
// Enclose returns how the nested action finished. It does NOT return when
// the nested action signals a failure exception or when a resolution in this
// containing action terminates the body; in those cases the frame unwinds
// into the containing action's recovery machinery.
func (c *Context) Enclose(spec *ActionSpec, body Body) (NestedResult, error) {
	if !spec.isMember(c.p.obj) {
		return NestedResult{}, fmt.Errorf("%s: %s: %w", spec.Name, c.p.obj, ErrNotMember)
	}
	inst, err := c.p.run.instanceFor(spec, c.inst)
	if err != nil {
		return NestedResult{}, err
	}
	entered := false
	defer func() {
		if !entered {
			// instanceFor began the nested transaction, but the frame never
			// reached this participant's estack (entry failed, or the body
			// unwound into a resolution at this level), so hookAbortNested
			// cannot find it. The resolution that kept us out dooms the nested
			// action for every member; abort here so the containing action's
			// commit does not trip over a live child.
			inst.abortTxn()
		}
	}()
	if err := c.p.enterInstance(c.level, inst); err != nil {
		return NestedResult{}, err
	}
	entered = true
	child := &inst.member(c.p.obj).ctx
	*child = Context{p: c.p, inst: inst, level: c.level + 1}
	return c.p.runScope(child, body)
}

// runScope executes body in the scope of ctx's action (already entered) and
// shepherds every way the action can finish: normal completion through the
// leave barrier, exception resolution at this action (park, handler outcome,
// then completion or signal), and escalation to a containing action (the
// sentinel keeps unwinding). Shared by Enclose and Run.
func (p *participant) runScope(ctx *Context, body Body) (NestedResult, error) {
	level := ctx.level

	// Phase A: the normal body followed by normal completion. A sentinel at
	// this level at ANY point of the phase (mid-body, at the barrier, while
	// leaving) means a resolution took over this action.
	res, err, sent, caught := p.protect(level, func() (NestedResult, error) {
		if bErr := body(ctx); bErr != nil {
			return NestedResult{}, bErr
		}
		// A body that returns while a resolution is in progress behaves as
		// if it hit a checkpoint: completion must not race the protocol.
		ctx.Checkpoint()
		return p.completeScope(ctx)
	})
	if !caught {
		if err != nil {
			// Programming failure: tear the whole run down.
			p.run.cancel()
			return NestedResult{}, err
		}
		return res, nil
	}

	// Resolution at this very action: park and wait for the resolved
	// handler's outcome.
	out := p.awaitOutcome(level, ctx.inst)
	if out.err != nil {
		p.run.cancel()
		return NestedResult{}, out.err
	}
	if out.signal != "" {
		// The handlers completed the action by signalling a failure
		// exception to the containing action: pop the frame and raise the
		// signal there (for the outermost action, Run reports it).
		res, err, sent, caught = p.protect(level, func() (NestedResult, error) {
			return p.signalToParent(ctx, out)
		})
		if caught {
			panic(sent)
		}
		return res, err
	}
	// Forward recovery succeeded: complete through the barrier. A second
	// resolution at this action is impossible (the engine records committed
	// resolutions), so a sentinel here can only be an outer escalation.
	res, err, sent, caught = p.protect(level, func() (NestedResult, error) {
		return p.completeScope(ctx)
	})
	if caught {
		panic(sent)
	}
	if err == nil {
		res.Resolved = out.resolved
	}
	return res, err
}

// protect runs f, converting a sentinel panic at exactly this level into a
// return value and re-panicking sentinels for outer levels.
func (p *participant) protect(level int, f func() (NestedResult, error)) (res NestedResult, err error, sent sentinel, caught bool) {
	defer func() {
		if r := recover(); r != nil {
			s, ok := r.(sentinel)
			if !ok {
				panic(r)
			}
			if s.level < level {
				panic(s)
			}
			sent, caught = s, true
		}
	}()
	res, err = f()
	return res, err, sentinel{}, false
}

// awaitOutcome parks the body at the resolution level and waits for the
// handler outcome. If the resolution escalates to an outer action meanwhile,
// the wait unwinds to it.
func (p *participant) awaitOutcome(level int, inst *instance) (out handlerOutcome) {
	p.park(level)
	defer p.park(levelNotParked)
	p.wait(level-1, func() (arrived bool) {
		out, arrived = p.takeOutcome(inst.id)
		return arrived
	}, nil)
	// The resolution completed here; lift the suspension this resolution
	// installed so the continuation can proceed.
	p.liftSuspension(level)
	return out
}

// signalToParent completes a nested action exceptionally: pop the frame,
// raise the signalled exception in the containing action and unwind to it.
// For the outermost action it returns the signal as the scope result.
func (p *participant) signalToParent(ctx *Context, out handlerOutcome) (NestedResult, error) {
	// The engine's frame must be popped without the usual barrier: the
	// action completed by signalling. Suspension for this level was lifted
	// by awaitOutcome.
	if err := p.leaveInstance(ctx.level, ctx.inst); err != nil {
		// A newer, outer resolution got in first; unwind into it.
		lvl := p.suspension()
		panic(sentinel{level: lvl})
	}
	if ctx.level == 0 {
		return NestedResult{Resolved: out.resolved, Signalled: out.signal}, nil
	}
	parentLevel := ctx.level - 1
	p.raise(parentLevel, out.signal)
	lvl := p.suspension()
	if lvl > parentLevel {
		lvl = parentLevel
	}
	panic(sentinel{level: lvl})
}

// completeScope takes a normally-completed (or successfully recovered) body
// through the synchronous leave barrier and out of the action.
func (p *participant) completeScope(ctx *Context) (NestedResult, error) {
	ctx.inst.arriveExit(p, ctx.level)
	p.wait(ctx.level, ctx.inst.exitOpen, nil)
	acceptFailed, err := ctx.inst.exitStatus()
	if err != nil {
		p.run.cancel()
		return NestedResult{}, err
	}
	if lErr := p.leaveInstance(ctx.level, ctx.inst); lErr != nil {
		lvl := p.suspension()
		panic(sentinel{level: lvl})
	}
	if acceptFailed {
		return NestedResult{AcceptanceFailed: true}, nil
	}
	return NestedResult{Completed: true}, nil
}

// liftSuspension resets the suspension installed by a resolution at exactly
// this level, so the post-recovery continuation can run. A deeper suspension
// cannot exist (those frames are gone); an outer one is preserved.
func (p *participant) liftSuspension(level int) {
	p.smu.Lock()
	defer p.smu.Unlock()
	if p.suspendLevel == level {
		p.suspendLevel = levelNone
	}
}
