package scengen

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exception"
	"repro/internal/ident"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Config is the server a Program runs on: everything about a run that is not
// the workload.
type Config struct {
	// Transport selects the messaging layer (default TransportRaw over the
	// simulated network). TransportTCP runs every object on its own loopback
	// socket fabric and ignores Latency; core refuses it a virtual clock and
	// membership monitoring.
	Transport core.TransportKind
	// Latency is the simulated network's one-way latency (0 = instant).
	Latency time.Duration
	// Virtual runs on an auto-advancing virtual clock (vclock.Virtual): every
	// timer in the stack — heartbeats, detector timeouts, leases, body sleeps,
	// the run deadline — fires in virtual time, so a partition that needs
	// 25 ms of detector silence costs microseconds of wall clock.
	Virtual bool
	// Timeout bounds each run on the run's clock (default 30s).
	Timeout time.Duration
}

// Result reports one run of a Program.
type Result struct {
	// Outcomes and Errs hold each family's outcome, in family order. Under a
	// healing partition they are the post-heal run's.
	Outcomes []core.Outcome
	Errs     []error
	// Cycles reports each expel/heal/rejoin cycle of a healing partition, and
	// FinalEpoch the persistent group view's epoch after the last run.
	Cycles     []Cycle
	FinalEpoch uint64
	// Census counts the protocol messages of the whole run by kind, and Total
	// sums it.
	Census map[string]int
	Total  int
	// ObservedP and ObservedQ are the raisers and nested objects the census
	// shows for family 0's N; Predicted is (N-1)(2P+3Q+1) evaluated on them.
	ObservedP, ObservedQ, Predicted int
	// Elapsed is the wall-clock duration of the runs; VirtualElapsed is how far
	// the virtual clock moved (zero on the wall clock), the same on every run.
	Elapsed, VirtualElapsed time.Duration
	// Log is the server's event log, Options.Trace: it keeps every event of
	// the run.
	Log *trace.Log

	rec   *recorder
	store map[string]any
}

// Cycle reports one expel/heal/rejoin cycle of a healing partition: the
// outcomes of its cut run and of its rejoin run.
type Cycle struct {
	Cut, Rejoin core.Outcome
}

// presetTiming is how Run compiles a program: a raise fires after its own
// delay, everyone else dwells until a resolution ends the run, and each
// abortion handler of a nested action works for 2 ms (the paper: "the
// proposed algorithm may suffer some delays because of the execution of
// abortion handlers in nested actions").
var presetTiming = coreTiming{forever: true, abortCost: 2 * time.Millisecond}

// Run runs every family of the program concurrently on one server built from
// c, under a healing partition after its cycles. It returns the families'
// errors joined.
func Run(p *Program, c Config) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if c.Latency < 0 {
		return Result{}, errors.New("scengen: Latency must not be negative")
	}
	if c.Timeout < 0 {
		return Result{}, errors.New("scengen: Timeout must not be negative")
	}
	fams := make([]int, len(p.Families))
	for fi := range fams {
		fams[fi] = fi
	}
	res := run(p, c, fams, presetTiming)
	return res, errors.Join(res.Errs...)
}

// protocolKinds are the message kinds counted as protocol overhead.
var protocolKinds = []string{
	protocol.KindException,
	protocol.KindAck,
	protocol.KindHaveNested,
	protocol.KindNestedCompleted,
	protocol.KindCommit,
}

// run is the one runner: it builds the server, drives a healing partition's
// cycles, then runs the listed families concurrently with a plain partition's
// cut armed, and reports. Errors land in Errs, one per family.
func run(p *Program, c Config, fams []int, t coreTiming) Result {
	res := Result{
		Outcomes: make([]core.Outcome, len(fams)),
		Errs:     make([]error, len(fams)),
		rec:      newRecorder(),
	}
	tree, _ := p.Tree() // p is valid, and Validate built this tree
	opts := core.Options{
		Network:    netsim.Config{Latency: netsim.FixedLatency(c.Latency)},
		Transport:  c.Transport,
		Membership: membershipFor(p.Partition),
		Trace:      trace.NewLog(),
	}
	var virtual *vclock.Virtual // nil on the wall clock
	if c.Virtual {
		virtual = vclock.NewVirtual()
		virtual.StartAuto()
		defer virtual.StopAuto()
		opts.Clock = virtual
	}
	withClock := func(err error) error {
		if err == nil || virtual == nil {
			return err
		}
		// A run that timed out in virtual time because a token leaked reads
		// e.g. "body=1 ... next=[+1ms]" instead of nothing.
		return fmt.Errorf("%w (virtual clock: %v)", err, virtual)
	}
	timeout := c.Timeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	sys := core.NewServer(opts)
	defer sys.Close()

	clk := vclock.Or(opts.Clock)

	start := time.Now()
	if p.Partition != nil && p.Partition.Heal {
		var err error
		if res.Cycles, err = churn(sys, clk, p, tree, timeout); err != nil {
			for i := range res.Errs {
				res.Errs[i] = withClock(err)
			}
			return res
		}
	}
	defs := make([]core.Definition, len(fams))
	for i, fi := range fams {
		ft := t
		if p.Partition == nil && len(p.Families[fi].Raises) == 0 {
			ft.forever = false // nothing would end the dwell
		}
		defs[i] = compileFamily(fi, &p.Families[fi], tree, res.rec, ft, clk)
	}
	if p.Partition != nil && !p.Partition.Heal {
		defs[0] = armCut(sys, clk, defs[0], p.Partition)
	}
	var wg sync.WaitGroup
	for i := range defs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := sys.RunTimeout(defs[i], timeout)
			res.Outcomes[i], res.Errs[i] = out, withClock(err)
		}(i)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	if virtual != nil {
		res.VirtualElapsed = virtual.Now().Sub(vclock.Epoch)
	}
	res.FinalEpoch = sys.GroupView().Epoch // zero without a healing partition
	res.store = sys.Store().Snapshot()
	res.Log = sys.Trace()
	res.Census = make(map[string]int, len(protocolKinds))
	for _, kind := range protocolKinds {
		n := res.Log.CountSends(kind)
		res.Census[kind] = n
		res.Total += n
	}
	if n := len(p.Families[0].Objects); n > 1 {
		res.ObservedP = res.Census[protocol.KindException] / (n - 1)
		res.ObservedQ = res.Census[protocol.KindHaveNested] / (n - 1)
		if res.Total > 0 {
			res.Predicted = protocol.PredictMessages(n, res.ObservedP, res.ObservedQ)
		}
	}
	return res
}

// membershipFor returns the membership monitoring a partition needs, and none
// without one. The timings suit simulation: a cut is decided well inside any
// run timeout, and jittered heartbeats never raise false suspicions. A
// healing partition also readmits expelled members, its degraded view
// chooser protected by a quorum lease.
func membershipFor(part *Partition) *core.MembershipOptions {
	if part == nil {
		return nil
	}
	m := &core.MembershipOptions{
		Heartbeat: time.Millisecond,
		Timeout:   25 * time.Millisecond,
		Poll:      2 * time.Millisecond,
	}
	if part.Heal {
		m.Rejoin = true
		m.Lease = 200 * time.Millisecond
	}
	return m
}

// cutName names the partition group armCut installs on the fabric.
const cutName = "cut"

// armCut is the one place a cut is armed: it returns def with the cut installed
// on the run's clock, counted from the instant the first body starts (armed
// before that, an auto-advancing clock would fire it before the run had bound
// anything to cut). The first body, like every body of a partition run, only
// ends when the run resolves or expels it; a cut still pending then is
// stopped before the body gives up its hold on the clock, so it neither
// lands on a finished run nor moves virtual time past the run's end.
func armCut(sys *core.Server, clk vclock.Clock, def core.Definition, part *Partition) core.Definition {
	objs := part.objects()
	bodies := make(map[ident.ObjectID]core.Body, len(def.Bodies))
	for obj, b := range def.Bodies {
		bodies[obj] = b
	}
	firstObj := def.Spec.Members[0]
	first := bodies[firstObj]
	bodies[firstObj] = func(ctx *core.Context) error {
		cut := clk.AfterFunc(part.delay(), func() { _ = sys.Partition(cutName, objs...) })
		defer cut.Stop()
		return first(ctx)
	}
	def.Bodies = bodies
	return def
}

// churn runs a healing partition's cycles. Each cycle's cut run idles the
// group until the cut lands and the surviving majority expels it as the
// participant failure; the partition then heals and the rejoin run waits
// while the expelled members petition the persistent group, catch up by state
// transfer and re-enter the next view. Flap adds cycles.
func churn(sys *core.Server, clk vclock.Clock, p *Program, tree *exception.Tree, timeout time.Duration) ([]Cycle, error) {
	fam := &p.Families[0]
	idleFam := Family{Objects: fam.Objects, Actions: fam.Actions[:1]}
	idle := compileFamily(0, &idleFam, tree, newRecorder(), coreTiming{forever: true}, clk)
	cut := p.Partition.objects()
	isCut := make(map[ident.ObjectID]bool, len(cut))
	for _, c := range cut {
		isCut[c] = true
	}
	waitWhole := func(ctx *core.Context) error {
		// Poll half-way between the membership layer's millisecond ticks: a
		// poll never shares an instant with a view change, so which goroutine
		// the clock wakes first cannot decide when the rejoin run ends.
		ctx.Sleep(time.Millisecond / 2)
		for i := 0; i < 50000; i++ {
			v := sys.GroupView()
			whole := true
			for _, c := range cut {
				whole = whole && v.Contains(c)
			}
			if whole {
				return nil
			}
			ctx.Sleep(2 * time.Millisecond)
		}
		return fmt.Errorf("cut never rejoined: %v", sys.GroupView())
	}
	rejoin := idle
	rejoin.Bodies = make(map[ident.ObjectID]core.Body, len(idle.Bodies))
	for obj, b := range idle.Bodies {
		if !isCut[obj] {
			b = waitWhole
		}
		rejoin.Bodies[obj] = b
	}

	var cycles []Cycle
	for cycle := 0; cycle <= p.Partition.Flap; cycle++ {
		var c Cycle
		var err error
		if c.Cut, err = sys.RunTimeout(armCut(sys, clk, idle, p.Partition), timeout); err != nil {
			return cycles, fmt.Errorf("cycle %d cut run: %w", cycle, err)
		}
		// The cut stands on the server's fabric until healed, run or no run;
		// healed between the runs, the expelled members' petitions get through.
		sys.HealPartition(cutName)
		if c.Rejoin, err = sys.RunTimeout(rejoin, timeout); err != nil {
			return cycles, fmt.Errorf("cycle %d rejoin run: %w", cycle, err)
		}
		cycles = append(cycles, c)
	}
	return cycles, nil
}
