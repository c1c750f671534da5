package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/protocol"
)

// Per-layer metrics, reported by the traced run (-trace 1). They have no
// bound: they explain a move of an end-to-end metric, they do not gate.
var (
	mSubmitP50   = metricDef{Name: "core.submit_us_p50", Unit: "us", Better: "lower"}
	mWaitP50     = metricDef{Name: "core.wait_us_p50", Unit: "us", Better: "lower"}
	mEmptyAction = metricDef{Name: "core.empty_action_us", Unit: "us", Better: "lower"}
	mFirstAction = metricDef{Name: "core.first_action_ms", Unit: "ms", Better: "lower"}
	mClose       = metricDef{Name: "core.close_ms", Unit: "ms", Better: "lower"}

	mExcPer     = metricDef{Name: "protocol.exception_per_action", Unit: "count", Better: "lower"}
	mAckPer     = metricDef{Name: "protocol.ack_per_action", Unit: "count", Better: "lower"}
	mCommitPer  = metricDef{Name: "protocol.commit_per_action", Unit: "count", Better: "lower"}
	mObservedP  = metricDef{Name: "protocol.observed_p", Unit: "count", Better: "lower"}
	mPredicted  = metricDef{Name: "protocol.predicted_ratio", Unit: "ratio", Better: "lower"}
	mStepNS     = metricDef{Name: "protocol.step_ns", Unit: "ns", Better: "lower"}
	mCaseUS     = metricDef{Name: "protocol.case_us", Unit: "us", Better: "lower"}
	mResolveNS  = metricDef{Name: "exception.resolve_ns", Unit: "ns", Better: "lower"}
	mNetSent    = metricDef{Name: "netsim.sent_per_action", Unit: "count", Better: "lower"}
	mNetDeliv   = metricDef{Name: "netsim.delivered_per_action", Unit: "count", Better: "lower"}
	mNetDropped = metricDef{Name: "netsim.dropped_per_action", Unit: "count", Better: "lower"}
	mNetMsgNS   = metricDef{Name: "netsim.msg_ns", Unit: "ns", Better: "lower"}
	mOvershoot  = metricDef{Name: "netsim.sleep_overshoot_ms", Unit: "ms", Better: "lower"}
	mDetMsgNS   = metricDef{Name: "transport.det.msg_ns", Unit: "ns", Better: "lower"}
	mConcMsgNS  = metricDef{Name: "transport.conc.msg_ns", Unit: "ns", Better: "lower"}
	mTCPMsgNS   = metricDef{Name: "transport.tcp.msg_ns", Unit: "ns", Better: "lower"}

	mRawMsgNS   = metricDef{Name: "group.raw.msg_ns", Unit: "ns", Better: "lower"}
	mR3MsgNS    = metricDef{Name: "group.r3.msg_ns", Unit: "ns", Better: "lower"}
	mR3Sends    = metricDef{Name: "group.r3.sends_per_msg", Unit: "count", Better: "lower"}
	mR3Extra    = metricDef{Name: "group.r3.extra_sends_per_action", Unit: "count", Better: "lower"}
	mWireEnc    = metricDef{Name: "wire.encode_ns", Unit: "ns", Better: "lower"}
	mWireDec    = metricDef{Name: "wire.decode_ns", Unit: "ns", Better: "lower"}
	mWireBytes  = metricDef{Name: "wire.bytes_per_msg", Unit: "B", Better: "lower"}
	mWireAction = metricDef{Name: "wire.bytes_per_action", Unit: "B", Better: "lower"}
	mFrameEnc   = metricDef{Name: "frame.encode_ns", Unit: "ns", Better: "lower"}
	mFrameDec   = metricDef{Name: "frame.decode_ns", Unit: "ns", Better: "lower"}
	mFrameOver  = metricDef{Name: "frame.overhead_bytes", Unit: "B", Better: "lower"}

	mAtomBegin  = metricDef{Name: "atomicobj.begin_ns", Unit: "ns", Better: "lower"}
	mAtomAdd    = metricDef{Name: "atomicobj.add_ns", Unit: "ns", Better: "lower"}
	mAtomUpdate = metricDef{Name: "atomicobj.update_ns", Unit: "ns", Better: "lower"}
	mAtomCommit = metricDef{Name: "atomicobj.commit_ns_per_record", Unit: "ns", Better: "lower"}
	mAtomAbort  = metricDef{Name: "atomicobj.abort_ns_per_record", Unit: "ns", Better: "lower"}
	mAtomOps    = metricDef{Name: "atomicobj.ops_per_action", Unit: "count", Better: "lower"}
	mTraceRec   = metricDef{Name: "trace.record_ns", Unit: "ns", Better: "lower"}
	mTraceEv    = metricDef{Name: "trace.events_per_action", Unit: "count", Better: "lower"}

	mCPU        = metricDef{Name: "runtime.cpu_us_per_action", Unit: "us", Better: "lower"}
	mGCCycles   = metricDef{Name: "runtime.gc_cycles_per_kaction", Unit: "count", Better: "lower"}
	mGCPause    = metricDef{Name: "runtime.gc_pause_us_per_action", Unit: "us", Better: "lower"}
	mGoroutines = metricDef{Name: "runtime.goroutines_peak", Unit: "count", Better: "lower"}
	mHeapPeak   = metricDef{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"}
	mSleepFloor = metricDef{Name: "env.sleep_floor_ms", Unit: "ms", Better: "lower"}
	mSpin       = metricDef{Name: "env.spin_ms", Unit: "ms", Better: "lower"}

	mP99      = metricDef{Name: "tail.action_p99_ms", Unit: "ms", Better: "lower"}
	mMax      = metricDef{Name: "tail.action_max_ms", Unit: "ms", Better: "lower"}
	mWindowCV = metricDef{Name: "harness.window_cv", Unit: "ratio", Better: "lower"}
	mQuiet    = metricDef{Name: "harness.quiet_windows", Unit: "count", Better: "higher"}
	mOverhead = metricDef{Name: "harness.trace_overhead_share", Unit: "ratio", Better: "lower"}

	shareNames = []string{"core", "protocol", "netsim", "transport", "group", "wire", "atomicobj", "trace", "gc", "unattributed"}

	perLayer = func() []metricDef {
		defs := []metricDef{
			mSubmitP50, mWaitP50, mEmptyAction, mFirstAction, mClose,
			mExcPer, mAckPer, mCommitPer, mObservedP, mPredicted, mStepNS, mCaseUS, mResolveNS,
			mNetSent, mNetDeliv, mNetDropped, mNetMsgNS, mOvershoot, mDetMsgNS, mConcMsgNS, mTCPMsgNS,
			mRawMsgNS, mR3MsgNS, mR3Sends, mR3Extra,
			mWireEnc, mWireDec, mWireBytes, mWireAction, mFrameEnc, mFrameDec, mFrameOver,
			mAtomBegin, mAtomAdd, mAtomUpdate, mAtomCommit, mAtomAbort, mAtomOps,
			mTraceRec, mTraceEv,
			mCPU, mGCCycles, mGCPause, mGoroutines, mHeapPeak, mSleepFloor, mSpin,
			mP99, mMax, mWindowCV, mQuiet, mOverhead,
		}
		for _, s := range shareNames {
			defs = append(defs, shareDef(s))
		}
		return defs
	}()
)

func shareDef(layer string) metricDef {
	return metricDef{Name: "share." + layer, Unit: "ratio", Better: "lower"}
}

// layerCost is one row of the attribution: a layer does perAction operations
// per action at ns CPU nanoseconds each, its own work only.
type layerCost struct {
	layer     string
	perAction float64
	ns        float64
}

// attribute turns the rows into shares of the measured CPU per action.
// share.gc comes measured, and share.unattributed is whatever the rows and
// the collector leave unexplained; it goes negative when they claim more
// than was spent.
func attribute(rows []layerCost, gcShare, cpuUS float64) map[string]float64 {
	shares := make(map[string]float64, len(shareNames))
	for _, s := range shareNames {
		shares[s] = 0
	}
	total := gcShare
	shares["gc"] = gcShare
	if cpuUS > 0 {
		for _, r := range rows {
			s := r.perAction * r.ns / (cpuUS * 1000)
			shares[r.layer] += s
			total += s
		}
	}
	shares["unattributed"] = 1 - total
	return shares
}

// medianOf3 runs a probe three times and returns the run whose cost per
// operation is the middle one.
func medianOf3(run func() (probe, error)) (probe, error) {
	var runs [3]probe
	for i := range runs {
		p, err := run()
		if err != nil {
			return p, err
		}
		runs[i] = p
	}
	sort.Slice(runs[:], func(i, j int) bool { return runs[i].per() < runs[j].per() })
	return runs[1], nil
}

func atLeastZero(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// sampler watches the goroutine count and the live heap while the timed
// phase of a traced run is under way.
type sampler struct {
	goroutines uint64
	heapBytes  uint64
	quit, done chan struct{}
}

func startSampler() *sampler {
	s := &sampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		samples := []metrics.Sample{
			{Name: "/sched/goroutines:goroutines"},
			{Name: "/memory/classes/heap/objects:bytes"},
		}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				metrics.Read(samples)
				if v := samples[0].Value.Uint64(); v > s.goroutines {
					s.goroutines = v
				}
				if v := samples[1].Value.Uint64(); v > s.heapBytes {
					s.heapBytes = v
				}
			}
		}
	}()
	return s
}

func (s *sampler) stop() {
	close(s.quit)
	<-s.done
}

// gcCPUSeconds is the runtime's estimate of the CPU the collector has used.
// It is brought up to date when a cycle ends.
func gcCPUSeconds() float64 {
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return sample[0].Value.Float64()
}

// writeSpans writes the traced windows' spans, three lines per action: the
// action span and its children core.submit and core.wait.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range spans {
		id := 3*i + 1
		fmt.Fprintf(w, `{"trace":%d,"span":%d,"parent":0,"name":"action","client":%d,"window":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			id, id, s.client, s.window, s.start, s.end)
		fmt.Fprintf(w, `{"trace":%d,"span":%d,"parent":%d,"name":"core.submit","start_ns":%d,"end_ns":%d}`+"\n",
			id, id+1, id, s.start, s.submitted)
		fmt.Fprintf(w, `{"trace":%d,"span":%d,"parent":%d,"name":"core.wait","start_ns":%d,"end_ns":%d}`+"\n",
			id, id+2, id, s.submitted, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spansPath is where the traced run leaves its spans, relative to the
// benchmark directory the command runs in.
func spansPath(workload string) string {
	return filepath.Join("out", workload+".trace.jsonl")
}

// reportLayers fills in every per-layer metric: counts from the count phase,
// timings from the spans and the windows, costs from the layer probes, and
// the attribution that puts them side by side.
func reportLayers(res *result, h *harness, cnt counts, wins []windowStats, spans []span, smp *sampler) {
	w := h.cfg.wl
	z := h.cfg.probes
	opts := w.options(h.cfg.seed)
	note := func(what string, err error) {
		if err != nil {
			h.fail(fmt.Errorf("probe %s: %w", what, err))
		}
	}

	// Windows: even ones ran with spans off, odd ones with spans on.
	var plain, traced []windowStats
	for _, win := range wins {
		if win.traced {
			traced = append(traced, win)
		} else {
			plain = append(plain, win)
		}
	}
	tp, tt := quietHalf(plain), quietHalf(traced)
	// Overhead of the spans: each traced window against the plain one just
	// before it, so that both see the same moment of the box; the median of
	// those ratios, minus one.
	var ratios []float64
	for i := 0; i < len(plain) && i < len(traced); i++ {
		if plain[i].actions > 0 && traced[i].actions > 0 && plain[i].cpu > 0 {
			ratios = append(ratios, (traced[i].cpu/float64(traced[i].actions))/(plain[i].cpu/float64(plain[i].actions)))
		}
	}
	overhead := 0.0
	if len(ratios) > 0 {
		overhead = median(ratios) - 1
	}
	res.set(mP99, percentile(tp.lat, 0.99))
	res.set(mMax, percentile(tp.lat, 1))
	res.set(mWindowCV, windowCV(wins))
	res.set(mQuiet, float64(tp.windows))
	res.set(mOverhead, overhead)
	res.set(mCPU, tp.cpuUS)
	actions := math.Max(float64(tp.actions), 1)
	res.set(mGCCycles, 1000*float64(tp.gcs)/actions)
	res.set(mGCPause, float64(tp.gcPause)/1000/actions)
	res.set(mGoroutines, float64(smp.goroutines))
	res.set(mHeapPeak, float64(smp.heapBytes)/(1<<20))

	// Spans.
	submit := make([]float64, len(spans))
	wait := make([]float64, len(spans))
	for i, s := range spans {
		submit[i] = float64(s.submitted-s.start) / 1000
		wait[i] = float64(s.end-s.submitted) / 1000
	}
	res.set(mSubmitP50, median(submit))
	res.set(mWaitP50, median(wait))
	note("spans", writeSpans(spansPath(w.name), spans))

	// Counts: messages from the timed windows, trace events from the count
	// phase.
	counted := perAction(wins)
	census, msgs := counted.byKind, counted.msgs
	exc := census[protocol.KindException]
	observedP := exc / float64(w.n-1)
	res.set(mExcPer, exc)
	res.set(mAckPer, census[protocol.KindAck])
	res.set(mCommitPer, census[protocol.KindCommit])
	res.set(mObservedP, observedP)
	ratio := 1.0 // nothing raised, nothing sent: the formula's other fixed point
	if msgs > 0 || observedP > 0 {
		ratio = msgs / (float64(w.n-1) * (2*observedP + 1))
	}
	res.set(mPredicted, ratio)
	netSent := counted.sent
	res.set(mNetSent, netSent)
	res.set(mNetDeliv, counted.delivered)
	res.set(mNetDropped, counted.lost)
	events := float64(cnt.events) / float64(cnt.k)
	res.set(mTraceEv, events)
	ops := 0.0
	if w.atomic {
		ops = float64(2 * atomicOps * w.n)
	}
	res.set(mAtomOps, ops)

	// Probes.
	mx := mixFromCensus(w.n, census)
	probeNet := netsim.Config{Latency: opts.Network.Latency} // the workload's links, without its faults
	overTCP := opts.Transport == core.TransportTCP
	reliable := opts.Transport != core.TransportRaw

	rec := probeTraceRecord(z)
	res.set(mTraceRec, rec.per())

	coreP, err := probeCore(z, w, h.cfg.seed)
	note("core", err)
	res.set(mEmptyAction, coreP.empty.per()/1000)
	res.set(mFirstAction, coreP.firstActionMS)
	res.set(mClose, coreP.closeMS)

	raisers := int(observedP + 0.5)
	proto, err := probeProtocol(z, w.n, raisers)
	note("protocol", err)
	res.set(mStepNS, proto.step.per())
	res.set(mCaseUS, proto.cases.per()/1000)
	resolve, err := probeResolve(z, w.n, raisers)
	note("exception", err)
	res.set(mResolveNS, resolve.per())

	// The fabric probes are subtracted from one another below, so each is the
	// median of three runs: the box's speed wanders by more than some of the
	// differences.
	netP, err := medianOf3(func() (probe, error) { return probeNetsim(z, probeNet, mx) })
	note("netsim", err)
	res.set(mNetMsgNS, netP.per())
	over, err := probeSleepOvershoot(z)
	note("netsim overshoot", err)
	res.set(mOvershoot, over.per()/1e6)
	det, err := probeDeterministic(z, mx)
	note("transport.Deterministic", err)
	res.set(mDetMsgNS, det.per())
	conc, err := medianOf3(func() (probe, error) { return probeConcurrent(z, probeNet, mx) })
	note("transport.Concurrent", err)
	res.set(mConcMsgNS, conc.per())
	tcp, err := medianOf3(func() (probe, error) { return probeTCPFabric(z, mx) })
	note("transport.TCP", err)
	res.set(mTCPMsgNS, tcp.per())

	raw, err := medianOf3(func() (probe, error) {
		p, _, err := probeGroupNetsim(z, probeNet, mx, false, 0)
		return p, err
	})
	note("group raw", err)
	res.set(mRawMsgNS, raw.per())
	var r3Sends float64
	r3, err := medianOf3(func() (p probe, err error) {
		p, r3Sends, err = probeGroupNetsim(z, probeNet, mx, true, opts.Retransmit)
		return p, err
	})
	note("group r3", err)
	if overTCP {
		r3, err = medianOf3(func() (probe, error) { return probeGroupTCP(z, mx) })
		note("group r3 over tcp", err)
	}
	res.set(mR3MsgNS, r3.per())

	// Sends per protocol message and the sends beyond one data message and
	// one acknowledgement each. Counted on netsim where the workload runs on
	// it; the socket fabric's counters are out of reach from outside core,
	// so tcp reports the probe's ratio and no extra sends.
	sendsPerMsg, extra := r3Sends, 0.0
	if !overTCP && msgs > 0 {
		sendsPerMsg = netSent / msgs
		extra = netSent - msgs
		if reliable {
			extra = netSent - 2*msgs
		}
	}
	res.set(mR3Sends, sendsPerMsg)
	res.set(mR3Extra, extra)

	wireEnc, wireDec, wireBytes, err := probeWire(z, mx)
	note("wire", err)
	res.set(mWireEnc, wireEnc.per())
	res.set(mWireDec, wireDec.per())
	res.set(mWireBytes, wireBytes)
	frameEnc, frameDec, frameOver, err := probeFrame(z, mx)
	note("frame", err)
	res.set(mFrameEnc, frameEnc.per())
	res.set(mFrameDec, frameDec.per())
	res.set(mFrameOver, frameOver)
	// Bytes that really cross the boundary per action: socket bytes on tcp,
	// encoded payloads where wire encoding is on, none where it is off.
	bytesPerAction := 0.0
	switch {
	case overTCP:
		socket, err := probeSocketBytes(z, mx)
		note("socket bytes", err)
		bytesPerAction = socket * msgs
	case opts.WireEncoding:
		bytesPerAction = wireBytes * msgs
	}
	res.set(mWireAction, bytesPerAction)

	atom, err := probeAtomic(z, w.n)
	note("atomicobj", err)
	res.set(mAtomBegin, atom.begin.per())
	res.set(mAtomAdd, atom.add.per())
	res.set(mAtomUpdate, atom.update.per())
	res.set(mAtomCommit, atom.commit.per())
	res.set(mAtomAbort, atom.abort.per())

	res.set(mSleepFloor, probeSleepFloor(z))
	res.set(mSpin, probeSpin(z))

	// Attribution. Every probe above is inclusive of the layers beneath it,
	// so each row subtracts what the layers below already claim.
	recNS := rec.per()
	rows := []layerCost{
		{"core", 1, atLeastZero(coreP.empty.per() - coreP.emptyEvents*recNS)},
		{"protocol", msgs, atLeastZero(proto.step.per() - det.per() - proto.eventsPerMsg*recNS)},
		{"trace", events, recNS},
	}
	if overTCP {
		sends := sendsPerMsg * msgs
		framing := frameEnc.per() + frameDec.per()
		rows = append(rows,
			layerCost{"transport", sends, atLeastZero(tcp.per() - framing)},
			layerCost{"group", msgs, atLeastZero(r3.per() - sendsPerMsg*tcp.per())},
			layerCost{"wire", msgs, wireEnc.per() + wireDec.per()},
			layerCost{"wire", sends, framing},
		)
	} else {
		inclusive := raw
		if reliable {
			inclusive = r3
		}
		rows = append(rows,
			layerCost{"netsim", netSent, netP.per()},
			layerCost{"transport", netSent, atLeastZero(conc.per() - netP.per())},
			layerCost{"group", msgs, atLeastZero(inclusive.per() - sendsPerMsg*conc.per())},
		)
		if opts.WireEncoding {
			rows = append(rows, layerCost{"wire", msgs, wireEnc.per() + wireDec.per()})
		}
	}
	if w.atomic {
		records := float64(atomicRecords(w.n))
		rows = append(rows,
			layerCost{"atomicobj", 1, atom.begin.per()},
			layerCost{"atomicobj", ops / 2, atom.add.per()},
			layerCost{"atomicobj", ops / 2, atom.update.per()},
			layerCost{"atomicobj", 0.75 * records, atom.commit.per()},
			layerCost{"atomicobj", 0.25 * records, atom.abort.per()},
		)
	}
	gcShare := 0.0
	if tp.cpuSeconds > 0 {
		gcShare = tp.gcCPU / tp.cpuSeconds
	}
	shares := attribute(rows, gcShare, tp.cpuUS)
	for _, s := range shareNames {
		res.set(shareDef(s), shares[s])
	}

	keys := make([]string, 0, len(census))
	for kind := range census {
		keys = append(keys, kind)
	}
	sort.Strings(keys)
	line := fmt.Sprintf("traced run: %d plain + %d traced quiet windows, cpu %.1f us/action; census per action:", tp.windows, tt.windows, tp.cpuUS)
	for _, kind := range keys {
		line += fmt.Sprintf(" %s=%.3f", kind, census[kind])
	}
	res.notes = append(res.notes, line, "spans written to benchmark/"+spansPath(w.name))
}
