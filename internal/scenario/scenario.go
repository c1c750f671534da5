// Package scenario generates the measurement workloads of the paper's §4.4
// analysis and runs them through the full stack (core runtime over the
// simulated network), reporting protocol-message censuses and latencies.
//
// The parameters mirror the paper's: N participating objects of the
// outermost action, P objects that raise exceptions concurrently, Q objects
// inside nested actions (which must be aborted), and a nesting depth for
// latency experiments. Because the full stack is genuinely concurrent, the
// number of raises that are accepted before the resolution suppresses the
// rest can be lower than P; Result reports the observed values so the
// closed-form prediction (N-1)(2P+3Q+1) is checked against what actually
// happened, not against the request.
package scenario

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exception"
	"repro/internal/ident"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Spec parameterises one measurement run.
type Spec struct {
	// N is the number of participating objects of the outermost action.
	N int
	// P is the number of objects that raise exceptions (concurrently, at
	// body start). At least 1 unless the spec is a no-exception run.
	P int
	// Q is the number of objects placed inside nested actions when the
	// exception hits (each gets its own chain of singleton nested actions).
	Q int
	// Depth is the nesting depth for each of the Q nested objects (>= 1;
	// only the outermost of the chain is counted by the paper's Q).
	Depth int
	// RaiseDelay postpones the raises, giving nested objects time to enter
	// their actions.
	RaiseDelay time.Duration
	// AbortionCost is simulated work performed by each abortion handler
	// (the paper: "the proposed algorithm may suffer some delays because of
	// the execution of abortion handlers in nested actions").
	AbortionCost time.Duration
	// Latency is the one-way network latency (0 = instant).
	Latency time.Duration
	// Policy selects the nested-action strategy of the outermost action.
	Policy core.NestedPolicy
	// Transport selects the messaging layer (default TransportRaw over the
	// instant simulated network). TransportTCP runs every participant on its
	// own loopback socket fabric; Latency is then ignored (the loopback
	// stack's own latency applies).
	Transport core.TransportKind
	// Retransmit is the retransmission period for the reliable transports
	// (TransportReliable, TransportTCP). Zero picks the default.
	Retransmit time.Duration
	// Timeout bounds the run (default 30s).
	Timeout time.Duration
	// KeepTrace includes the full event trace in the result (Result.Trace).
	KeepTrace bool
	// Membership enables partition-aware membership monitoring
	// (core.Options.Membership): heartbeat failure detection, majority views
	// and expulsion of unreachable participants as the predefined
	// participant-failure exception. The exception tree gains
	// core.ExcParticipantFailure. Requires a netsim transport (not
	// TransportTCP).
	Membership bool
	// Partition lists the object numbers (1-based, O1..ON) cut away from the
	// rest of the group mid-run as one named partition. Requires Membership,
	// and must leave the surviving side with a strict majority of N so the
	// primary partition can make expulsion decisions.
	Partition []int
	// PartitionDelay postpones the cut after the run starts (default 20ms,
	// giving participants time to bind and exchange first heartbeats).
	PartitionDelay time.Duration
	// Virtual runs the scenario on an auto-advancing virtual clock
	// (vclock.Virtual): every timer in the stack — heartbeats, failure
	// timeouts, body sleeps, the run deadline — fires in virtual time, so a
	// partition that needs 25ms of detector silence costs microseconds of
	// wall clock. Requires a netsim transport (real sockets do real waiting).
	Virtual bool
}

// Result reports one run.
type Result struct {
	Outcome core.Outcome
	// Census is the protocol-message census by kind.
	Census map[string]int
	// Total is the total number of protocol messages.
	Total int
	// ObservedP is the number of Exception-multicasting raisers that the
	// resolution actually saw.
	ObservedP int
	// ObservedQ is the number of objects that performed the
	// HaveNested/NestedCompleted exchange.
	ObservedQ int
	// Predicted is (N-1)(2·ObservedP + 3·ObservedQ + 1), the paper's
	// formula evaluated on the observed parameters.
	Predicted int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// VirtualElapsed is the virtual time the run took (zero on the wall
	// clock): a function of the spec, the same on every run.
	VirtualElapsed time.Duration
	// Trace is the rendered event log (only when Spec.KeepTrace).
	Trace string
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.N < 1 {
		return errors.New("scenario: N must be >= 1")
	}
	if s.P < 0 || s.P > s.N {
		return errors.New("scenario: P must be in [0, N]")
	}
	if s.Q < 0 || s.P+s.Q > s.N {
		return errors.New("scenario: P+Q must be <= N")
	}
	if s.Q > 0 && s.Depth < 1 {
		return errors.New("scenario: Depth must be >= 1 when Q > 0")
	}
	if s.Depth < 0 {
		return errors.New("scenario: Depth must not be negative")
	}
	for _, d := range []struct {
		name string
		val  time.Duration
	}{
		{"RaiseDelay", s.RaiseDelay},
		{"AbortionCost", s.AbortionCost},
		{"Latency", s.Latency},
		{"Retransmit", s.Retransmit},
		{"Timeout", s.Timeout},
		{"PartitionDelay", s.PartitionDelay},
	} {
		if d.val < 0 {
			return fmt.Errorf("scenario: %s must not be negative", d.name)
		}
	}
	if len(s.Partition) > 0 {
		if !s.Membership {
			return errors.New("scenario: Partition requires Membership")
		}
		seen := make(map[int]bool, len(s.Partition))
		for _, p := range s.Partition {
			if p < 1 || p > s.N {
				return fmt.Errorf("scenario: partition object %d out of range [1, %d]", p, s.N)
			}
			if seen[p] {
				return fmt.Errorf("scenario: partition object %d listed twice", p)
			}
			seen[p] = true
		}
		if survivors := s.N - len(s.Partition); 2*survivors <= s.N {
			return errors.New("scenario: partition must leave a strict majority of N")
		}
	}
	if s.Membership && s.Transport == core.TransportTCP {
		return errors.New("scenario: Membership requires a netsim transport")
	}
	if s.Virtual && s.Transport == core.TransportTCP {
		return errors.New("scenario: Virtual requires a netsim transport")
	}
	return nil
}

// withClock attaches the virtual clock's state to a failed run's error: a run
// that timed out in virtual time because a clock token leaked reads e.g.
// "body=1 ... next=[+1ms]" instead of nothing.
func withClock(err error, clk *vclock.Virtual) error {
	if clk == nil {
		return err
	}
	return fmt.Errorf("%w (virtual clock: %v)", err, clk)
}

// protocolKinds are the message kinds counted as protocol overhead.
var protocolKinds = []string{
	protocol.KindException,
	protocol.KindAck,
	protocol.KindHaveNested,
	protocol.KindNestedCompleted,
	protocol.KindCommit,
}

// Run executes the scenario and returns its measurements.
func Run(spec Spec) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	timeout := spec.Timeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	log := trace.NewLog()
	opts := core.Options{
		Network:    netsim.Config{Latency: netsim.FixedLatency(spec.Latency)},
		Transport:  spec.Transport,
		Retransmit: spec.Retransmit,
		Trace:      log,
	}
	var virtual *vclock.Virtual // nil on the wall clock
	if spec.Virtual {
		virtual = vclock.NewVirtual()
		virtual.StartAuto()
		defer virtual.StopAuto()
		opts.Clock = virtual
	}
	if spec.Membership {
		// Timings tuned for simulation runs: fast enough that a partition is
		// decided well inside the default timeout, slow enough that jittered
		// heartbeats never produce false suspicions.
		opts.Membership = &core.MembershipOptions{
			Heartbeat: time.Millisecond,
			Timeout:   25 * time.Millisecond,
			Poll:      2 * time.Millisecond,
		}
	}
	sys := core.NewServer(opts)
	defer sys.Close()

	def, nestedSpecs := buildDefinition(spec)
	if len(spec.Partition) > 0 {
		cut := make([]ident.ObjectID, len(spec.Partition))
		for i, p := range spec.Partition {
			cut[i] = ident.ObjectID(p)
		}
		delay := spec.PartitionDelay
		if delay == 0 {
			delay = 20 * time.Millisecond
		}
		// The cut is a callback on the run's clock, armed by the first body
		// to start and so counted from the instant the run starts: on the
		// virtual clock it lands at exactly that instant of the run (armed out
		// here, where nothing is counted yet, an auto-advancing clock would
		// fire it before the run had bound anything to cut). Best-effort: a
		// cut that lands after the run finished changes nothing the result
		// reports, which then shows no expulsions.
		clk := vclock.Or(opts.Clock)
		first := def.Bodies[1]
		var cutTimer vclock.Handle
		def.Bodies[1] = func(ctx *core.Context) error {
			cutTimer = clk.AfterFunc(delay, func() { _ = sys.Partition("storm", cut...) })
			return first(ctx)
		}
		defer func() {
			if cutTimer != nil {
				cutTimer.Stop()
			}
		}()
	}
	start := time.Now()
	out, err := sys.RunTimeout(def, timeout)
	elapsed := time.Since(start)
	if err != nil {
		return Result{Outcome: out, Elapsed: elapsed}, withClock(err, virtual)
	}
	_ = nestedSpecs

	res := Result{
		Outcome: out,
		Census:  make(map[string]int, len(protocolKinds)),
		Elapsed: elapsed,
	}
	if virtual != nil {
		res.VirtualElapsed = virtual.Now().Sub(vclock.Epoch)
	}
	for _, kind := range protocolKinds {
		n := log.CountSends(kind)
		res.Census[kind] = n
		res.Total += n
	}
	if spec.N > 1 {
		res.ObservedP = res.Census[protocol.KindException] / (spec.N - 1)
		res.ObservedQ = res.Census[protocol.KindHaveNested] / (spec.N - 1)
	}
	if res.Total > 0 {
		res.Predicted = protocol.PredictMessages(spec.N, res.ObservedP, res.ObservedQ)
	}
	if spec.KeepTrace {
		res.Trace = log.Dump()
	}
	return res, nil
}

// Build constructs the spec's CA-action definition for submission to a
// caller-provided shared server (core.Server.Submit or Run). Only the
// per-action parameters apply — N, P, Q, Depth, RaiseDelay, AbortionCost,
// Policy — since the transport and network live on the server. Membership
// specs are rejected: failure detection needs server-level options, which
// scenario.Run provides.
func Build(spec Spec) (core.Definition, error) {
	if err := spec.Validate(); err != nil {
		return core.Definition{}, err
	}
	if spec.Membership || len(spec.Partition) > 0 {
		return core.Definition{}, errors.New("scenario: membership specs need a private system; use Run")
	}
	def, _ := buildDefinition(spec)
	return def, nil
}

// RunOn executes the spec's action on a caller-provided shared server,
// multiplexed with whatever else the server is hosting. Unlike Run it
// reports only the outcome: the server's trace log aggregates every hosted
// action, so no per-action census can be cut from it.
func RunOn(sys *core.Server, spec Spec) (core.Outcome, error) {
	def, err := Build(spec)
	if err != nil {
		return core.Outcome{}, err
	}
	timeout := spec.Timeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	return sys.RunTimeout(def, timeout)
}

// buildDefinition constructs the CA action for the spec: members O1..ON, a
// flat exception tree with one exception per object, P raiser bodies, Q
// nested idlers and N-P-Q plain idlers.
func buildDefinition(spec Spec) (core.Definition, []*core.ActionSpec) {
	members := make([]ident.ObjectID, spec.N)
	for i := range members {
		members[i] = ident.ObjectID(i + 1)
	}
	tb := exception.NewBuilder("omega")
	for i := 1; i <= spec.N; i++ {
		tb.Add(fmt.Sprintf("exc%d", i), "omega")
	}
	if spec.Membership {
		tb.Add(core.ExcParticipantFailure, "omega")
	}
	tree := tb.MustBuild()

	noop := core.HandlerSet{Default: func(*core.RecoveryContext, exception.Exception) (string, error) {
		return "", nil
	}}
	handlers := make(map[ident.ObjectID]core.HandlerSet, spec.N)
	for _, m := range members {
		handlers[m] = noop
	}

	bodies := make(map[ident.ObjectID]core.Body, spec.N)
	var nestedSpecs []*core.ActionSpec

	idle := func(ctx *core.Context) error {
		ctx.Sleep(time.Hour)
		return nil
	}

	for i := 0; i < spec.N; i++ {
		obj := members[i]
		switch {
		case i < spec.P:
			exc := fmt.Sprintf("exc%d", i+1)
			delay := spec.RaiseDelay
			bodies[obj] = func(ctx *core.Context) error {
				if delay > 0 {
					ctx.Sleep(delay)
				}
				ctx.Raise(exc)
				return nil
			}
		case i < spec.P+spec.Q:
			// Build this object's private chain of singleton nested actions.
			chain := make([]*core.ActionSpec, spec.Depth)
			for d := 0; d < spec.Depth; d++ {
				as := &core.ActionSpec{
					Name:    fmt.Sprintf("nested-%s-%d", obj, d),
					Tree:    tree,
					Members: []ident.ObjectID{obj},
					Handlers: map[ident.ObjectID]core.HandlerSet{
						obj: noop,
					},
				}
				if spec.AbortionCost > 0 {
					cost := spec.AbortionCost
					as.Abortion = map[ident.ObjectID]core.AbortionHandler{
						obj: func(*core.RecoveryContext) string {
							time.Sleep(cost)
							return ""
						},
					}
				}
				chain[d] = as
			}
			nestedSpecs = append(nestedSpecs, chain...)
			bodies[obj] = func(ctx *core.Context) error {
				var descend func(c *core.Context, d int) error
				descend = func(c *core.Context, d int) error {
					if d == len(chain) {
						c.Sleep(time.Hour)
						return nil
					}
					_, err := c.Enclose(chain[d], func(nc *core.Context) error {
						return descend(nc, d+1)
					})
					return err
				}
				return descend(ctx, 0)
			}
		default:
			bodies[obj] = idle
		}
	}

	def := core.Definition{
		Spec: core.ActionSpec{
			Name:     "scenario",
			Tree:     tree,
			Members:  members,
			Handlers: handlers,
			Policy:   spec.Policy,
		},
		Bodies: bodies,
	}
	return def, nestedSpecs
}

// RunNoException measures a run where nothing goes wrong: the body of every
// object performs w writes to the shared store and completes. It returns the
// protocol-message total (expected: 0) and the elapsed time.
func RunNoException(n, writes int, latency time.Duration) (Result, error) {
	log := trace.NewLog()
	sys := core.NewServer(core.Options{
		Network: netsim.Config{Latency: netsim.FixedLatency(latency)},
		Trace:   log,
	})
	defer sys.Close()

	members := make([]ident.ObjectID, n)
	for i := range members {
		members[i] = ident.ObjectID(i + 1)
	}
	tree := exception.NewBuilder("omega").MustBuild()
	noop := core.HandlerSet{Default: func(*core.RecoveryContext, exception.Exception) (string, error) {
		return "", nil
	}}
	handlers := make(map[ident.ObjectID]core.HandlerSet, n)
	bodies := make(map[ident.ObjectID]core.Body, n)
	for _, m := range members {
		handlers[m] = noop
		obj := m
		bodies[m] = func(ctx *core.Context) error {
			for w := 0; w < writes; w++ {
				key := fmt.Sprintf("obj-%s-%d", obj, w)
				if err := ctx.Write(key, w); err != nil {
					return err
				}
			}
			return nil
		}
	}
	def := core.Definition{
		Spec: core.ActionSpec{
			Name: "no-exception", Tree: tree, Members: members, Handlers: handlers,
		},
		Bodies: bodies,
	}
	start := time.Now()
	out, err := sys.Run(def)
	elapsed := time.Since(start)
	if err != nil {
		return Result{Outcome: out, Elapsed: elapsed}, err
	}
	res := Result{Outcome: out, Census: make(map[string]int), Elapsed: elapsed}
	for _, kind := range protocolKinds {
		c := log.CountSends(kind)
		res.Census[kind] = c
		res.Total += c
	}
	return res, nil
}
