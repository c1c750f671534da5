package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atomicobj"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/ident"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/wire/frame"
)

// Layer probes: small loops that time calls into one layer's public
// functions, replaying the workload's message mix. Each returns a probe, the
// number of operations and the CPU nanoseconds they took in total, so that
// the attribution in layers.go is one loop over (count per action, ns per
// operation) rows.

// probe is one layer measurement.
type probe struct {
	count int
	ns    float64
}

// per is the cost of one operation in nanoseconds.
func (p probe) per() float64 {
	if p.count == 0 {
		return 0
	}
	return p.ns / float64(p.count)
}

// probeSizes scales the probes' iteration counts: 1 for a real run, larger
// in the smoke test, which checks that the probes work and not what they
// read.
type probeSizes struct{ div int }

func (z probeSizes) of(base int) int {
	if n := base / z.div; n > 10 {
		return n
	}
	return 10
}

// cpuOf runs f with the collector off and returns the CPU (user+sys, all
// threads) it used, in nanoseconds. CPU time, not wall time, so a neighbour
// stealing the core does not inflate a probe; collector off, so that garbage
// collection is attributed once, by share.gc, and not again inside every
// layer.
func cpuOf(f func()) float64 {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	c0 := cpuSeconds()
	f()
	return (cpuSeconds() - c0) * 1e9
}

// mix is one action's worth of protocol messages, in the proportions of the
// timed phase's census.
type mix struct {
	n    int
	msgs []protocol.Msg
}

// mixFromCensus builds the mix. A workload that sends nothing (atomic) gets
// one message of each resolution kind, so the per-message probes still have
// something to replay; their counts per action stay zero.
func mixFromCensus(n int, perAction map[string]float64) mix {
	m := mix{n: n}
	kinds := []string{protocol.KindException, protocol.KindAck, protocol.KindCommit}
	for _, kind := range kinds {
		copies := int(perAction[kind] + 0.5)
		if copies == 0 {
			copies = 1
		}
		for i := 0; i < copies; i++ {
			from := ident.ObjectID(i%n + 1)
			msg := protocol.Msg{Kind: kind, Action: 1, Path: []ident.ActionID{1}, From: from}
			switch kind {
			case protocol.KindException:
				msg.Exc = excName(from)
			case protocol.KindCommit:
				msg.Exc = root
			}
			m.msgs = append(m.msgs, msg)
		}
	}
	return m
}

// exchange pushes total messages through a fabric of n attachments — sender
// and receiver cycling over every ordered pair — in bursts of one action's
// worth, waiting for each burst to come out of the receive channels before
// sending the next, the way an action's participants send and then wait.
// Receivers run until their channel closes, which the caller's teardown
// does; wait then joins them.
func exchange[T any](n, total, burst int, recv func(i int) <-chan T, send func(from, to, seq int) error) (p probe, wait func(), err error) {
	arrived := make(chan struct{}, burst)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(ch <-chan T) {
			defer wg.Done()
			for range ch {
				arrived <- struct{}{}
			}
		}(recv(i))
	}
	ns := cpuOf(func() {
		timeout := time.NewTimer(10 * time.Second)
		defer timeout.Stop()
		from, to := 0, 0
		for seq := 0; seq < total && err == nil; {
			sent := 0
			for ; sent < burst && seq < total && err == nil; sent++ {
				if to = (to + 1) % n; to == from {
					from = (from + 1) % n
					to = (from + 1) % n
				}
				err = send(from, to, seq)
				seq++
			}
			for ; sent > 0 && err == nil; sent-- {
				select {
				case <-arrived:
				case <-timeout.C:
					err = fmt.Errorf("exchange: timed out after %d of %d messages", seq, total)
				}
			}
		}
		// Acknowledgements of the last burst are still in flight; sleeping
		// costs no CPU and lets their cost land inside the measurement.
		time.Sleep(2 * time.Millisecond)
	})
	return probe{count: total, ns: ns}, wg.Wait, err
}

// exchangeSize picks how many messages a fabric probe moves: many on instant
// links, few on links with latency, where each ordered pair delivers one
// message per delay.
func (z probeSizes) exchange(cfg netsim.Config) int {
	if cfg.Latency != nil {
		return z.of(360)
	}
	return z.of(20000)
}

// probeNetsim times netsim alone: endpoints, queues and (with latency) the
// per-pair links.
func probeNetsim(z probeSizes, cfg netsim.Config, mx mix) (probe, error) {
	network := netsim.New(cfg)
	eps := make([]*netsim.Endpoint, mx.n)
	for i := range eps {
		eps[i] = network.Node(ident.NodeID(i + 1))
	}
	p, wait, err := exchange(mx.n, z.exchange(cfg), len(mx.msgs),
		func(i int) <-chan netsim.Message { return eps[i].Recv() },
		func(from, to, seq int) error {
			m := mx.msgs[seq%len(mx.msgs)]
			return eps[from].Send(ident.NodeID(to+1), m.Kind, m)
		})
	network.Close()
	wait()
	return p, err
}

// probeSleepOvershoot measures how late a 2 ms netsim link delivers: the
// kernel timer slack every delayed hop of delay-lossy pays.
func probeSleepOvershoot(z probeSizes) (probe, error) {
	const delay = 2 * time.Millisecond
	rounds := z.of(40)
	network := netsim.New(netsim.Config{Latency: netsim.FixedLatency(delay)})
	defer network.Close()
	a, b := network.Node(1), network.Node(2)
	var over time.Duration
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if err := a.Send(2, "probe", nil); err != nil {
			return probe{}, err
		}
		<-b.Recv()
		over += time.Since(start) - delay
	}
	return probe{count: rounds, ns: float64(over)}, nil
}

// probeDeterministic times the single-threaded fabric under protocol.Sim.
func probeDeterministic(z probeSizes, mx mix) (probe, error) {
	total := z.of(200000)
	fab := transport.NewDeterministic(transport.Options{})
	delivered := 0
	for i := 0; i < mx.n; i++ {
		fab.Register(ident.ObjectID(i+1), func(transport.Message) { delivered++ })
	}
	var err error
	ns := cpuOf(func() {
		for seq := 0; seq < total && err == nil; seq++ {
			m := mx.msgs[seq%len(mx.msgs)]
			from := seq % mx.n
			err = fab.Send(transport.Message{
				From: ident.ObjectID(from + 1), To: ident.ObjectID((from+1)%mx.n + 1), Kind: m.Kind, Payload: m,
			})
			fab.Step()
		}
	})
	if err == nil && delivered != total {
		err = fmt.Errorf("deterministic fabric delivered %d of %d", delivered, total)
	}
	return probe{count: total, ns: ns}, err
}

// probeConcurrent times transport.Concurrent over netsim.
func probeConcurrent(z probeSizes, cfg netsim.Config, mx mix) (probe, error) {
	network := netsim.New(cfg)
	fab := transport.NewConcurrent(network, transport.ConcurrentOptions{})
	ports := make([]*transport.Port, mx.n)
	for i := range ports {
		port, err := fab.Bind(ident.ObjectID(i+1), ident.NodeID(i+1))
		if err != nil {
			return probe{}, err
		}
		ports[i] = port
	}
	p, wait, err := exchange(mx.n, z.exchange(cfg), len(mx.msgs),
		func(i int) <-chan transport.Message { return ports[i].Recv() },
		func(from, to, seq int) error {
			m := mx.msgs[seq%len(mx.msgs)]
			return ports[from].SendTagged(ident.ObjectID(to+1), m.Kind, 1, m)
		})
	_ = fab.Close()
	network.Close()
	wait()
	return p, err
}

// wireMix encodes the mix once, for the fabrics that carry bytes.
func wireMix(mx mix) ([][]byte, error) {
	out := make([][]byte, len(mx.msgs))
	for i, m := range mx.msgs {
		b, err := wire.Encode(m)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// probeTCPFabric times transport.TCP: one loopback fabric per member,
// pre-encoded payloads, so framing and sockets but no wire codec.
func probeTCPFabric(z probeSizes, mx mix) (probe, error) {
	payloads, err := wireMix(mx)
	if err != nil {
		return probe{}, err
	}
	fabs := make([]*transport.TCP, mx.n)
	ports := make([]*transport.TCPPort, mx.n)
	closeAll := func() {
		for _, f := range fabs {
			if f != nil {
				_ = f.Close()
			}
		}
	}
	for i := range fabs {
		if fabs[i], err = transport.NewTCP(transport.TCPOptions{}); err != nil {
			closeAll()
			return probe{}, err
		}
		if ports[i], err = fabs[i].Bind(ident.ObjectID(i + 1)); err != nil {
			closeAll()
			return probe{}, err
		}
	}
	for i, f := range fabs {
		for j, g := range fabs {
			if i != j {
				f.SetPeer(ident.ObjectID(j+1), g.Addr())
			}
		}
	}
	p, wait, err := exchange(mx.n, z.of(20000), len(mx.msgs),
		func(i int) <-chan transport.Message { return ports[i].Recv() },
		func(from, to, seq int) error {
			m := mx.msgs[seq%len(mx.msgs)]
			return ports[from].SendTagged(ident.ObjectID(to+1), m.Kind, 1, payloads[seq%len(payloads)])
		})
	closeAll()
	wait()
	return p, err
}

// probeGroup times one group transport, send to delivery (acknowledgements
// included for R3), over the given binder. newTransport builds the transport
// under test for one member.
func probeGroup(mx mix, total int, payload func(seq int) any,
	newTransport func(obj ident.ObjectID) (group.Transport, error), teardown func()) (probe, error) {
	trs := make([]group.Transport, mx.n)
	closeAll := func() {
		for _, t := range trs {
			if t != nil {
				t.Close()
			}
		}
		teardown()
	}
	for i := range trs {
		t, err := newTransport(ident.ObjectID(i + 1))
		if err != nil {
			closeAll()
			return probe{}, err
		}
		trs[i] = t
	}
	p, wait, err := exchange(mx.n, total, len(mx.msgs),
		func(i int) <-chan group.Delivery { return trs[i].Recv() },
		func(from, to, seq int) error {
			m := mx.msgs[seq%len(mx.msgs)]
			return trs[from].SendTagged(ident.ObjectID(to+1), m.Kind, 1, payload(seq))
		})
	closeAll()
	wait()
	return p, err
}

// probeGroupNetsim times RawTransport or R3Transport over a netsim directory
// and reports the netsim sends each delivered message cost (1 raw, 2 with an
// acknowledgement).
func probeGroupNetsim(z probeSizes, cfg netsim.Config, mx mix, reliable bool, retransmit time.Duration) (p probe, sendsPerMsg float64, err error) {
	network := netsim.New(cfg)
	dir := group.NewDirectory(network)
	p, err = probeGroup(mx, z.exchange(cfg),
		func(seq int) any { return mx.msgs[seq%len(mx.msgs)] },
		func(obj ident.ObjectID) (group.Transport, error) {
			if reliable {
				return group.NewR3Transport(dir, obj, retransmit)
			}
			return group.NewRawTransport(dir, obj)
		},
		func() { _ = dir.Fabric().Close() })
	if p.count > 0 {
		sendsPerMsg = float64(network.Stats().Sent) / float64(p.count)
	}
	network.Close()
	return p, sendsPerMsg, err
}

// probeGroupTCP times R3Transport over the socket directory, the stack the
// tcp workload runs on, with pre-encoded payloads (the wire codec is timed
// by its own probe).
func probeGroupTCP(z probeSizes, mx mix, opts ...group.TCPDirOption) (probe, error) {
	payloads, err := wireMix(mx)
	if err != nil {
		return probe{}, err
	}
	dir := group.NewTCPDirectory(opts...)
	return probeGroup(mx, z.of(10000),
		func(seq int) any { return payloads[seq%len(payloads)] },
		func(obj ident.ObjectID) (group.Transport, error) { return group.NewR3Transport(dir, obj, 0) },
		dir.Close)
}

// countingRelay forwards loopback TCP connections and counts the bytes that
// cross it, so that the bytes a message really puts on a socket — frame
// header, R3 envelope, acknowledgements — can be read from outside the
// transport.
type countingRelay struct {
	mu     sync.Mutex
	relays map[string]net.Listener // target address -> listener in front of it
	conns  []net.Conn
	err    error // first failure to listen; the connection then bypasses the relay
	bytes  atomic.Int64
	wg     sync.WaitGroup
}

func newCountingRelay() *countingRelay {
	return &countingRelay{relays: make(map[string]net.Listener)}
}

// front returns the address of a listener that forwards to target.
func (r *countingRelay) front(target string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ln, ok := r.relays[target]; ok {
		return ln.Addr().String()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if r.err == nil {
			r.err = err
		}
		return target
	}
	r.relays[target] = ln
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", target)
			if err != nil {
				in.Close()
				continue
			}
			r.mu.Lock()
			r.conns = append(r.conns, in, out)
			r.mu.Unlock()
			r.wg.Add(2)
			go r.pipe(out, in)
			go r.pipe(in, out)
		}
	}()
	return ln.Addr().String()
}

func (r *countingRelay) pipe(dst, src net.Conn) {
	defer r.wg.Done()
	n, _ := io.Copy(dst, src)
	r.bytes.Add(n)
	dst.Close()
}

func (r *countingRelay) close() {
	r.mu.Lock()
	for _, ln := range r.relays {
		ln.Close()
	}
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// probeSocketBytes replays the mix over the tcp workload's stack with every
// connection routed through a counting relay and returns the bytes per
// protocol message that crossed a socket.
func probeSocketBytes(z probeSizes, mx mix) (float64, error) {
	relay := newCountingRelay()
	p, err := probeGroupTCP(z, mx, group.WithDialRewrite(func(_, _ ident.ObjectID, addr string) string {
		return relay.front(addr)
	}))
	relay.close()
	if err == nil {
		err = relay.err
	}
	if err != nil || p.count == 0 {
		return 0, err
	}
	return float64(relay.bytes.Load()) / float64(p.count), nil
}

// probeWire times the protocol-message codec over the mix and reports the
// mean encoded size.
func probeWire(z probeSizes, mx mix) (enc, dec probe, bytesPerMsg float64, err error) {
	rounds := z.of(20000)
	encoded, err := wireMix(mx)
	if err != nil {
		return
	}
	total := 0
	for _, b := range encoded {
		total += len(b)
	}
	bytesPerMsg = float64(total) / float64(len(encoded))
	enc.count, dec.count = rounds*len(mx.msgs), rounds*len(mx.msgs)
	enc.ns = cpuOf(func() {
		for r := 0; r < rounds; r++ {
			for _, m := range mx.msgs {
				if _, e := wire.Encode(m); e != nil {
					err = e
				}
			}
		}
	})
	dec.ns = cpuOf(func() {
		for r := 0; r < rounds; r++ {
			for _, b := range encoded {
				if _, e := wire.Decode(b); e != nil {
					err = e
				}
			}
		}
	})
	return
}

// probeFrame times the socket framing over the encoded mix and reports the
// bytes a frame adds to its payload.
func probeFrame(z probeSizes, mx mix) (enc, dec probe, overhead float64, err error) {
	rounds := z.of(20000)
	payloads, err := wireMix(mx)
	if err != nil {
		return
	}
	frames := make([]frame.Frame, len(payloads))
	encoded := make([][]byte, len(payloads))
	extra := 0
	for i, b := range payloads {
		frames[i] = frame.Frame{From: mx.msgs[i].From, To: 1, Kind: mx.msgs[i].Kind, Action: 1, Payload: b}
		if encoded[i], err = frame.Encode(frames[i]); err != nil {
			return
		}
		extra += len(encoded[i]) - len(b)
	}
	overhead = float64(extra) / float64(len(payloads))
	enc.count, dec.count = rounds*len(frames), rounds*len(frames)
	enc.ns = cpuOf(func() {
		for r := 0; r < rounds; r++ {
			for _, f := range frames {
				if _, e := frame.Encode(f); e != nil {
					err = e
				}
			}
		}
	})
	dec.ns = cpuOf(func() {
		var rd bytes.Reader
		for r := 0; r < rounds; r++ {
			for _, b := range encoded {
				rd.Reset(b)
				if _, e := frame.Read(&rd); e != nil {
					err = e
				}
			}
		}
	})
	return
}

// protocolProbes is what the bare-protocol replay yields.
type protocolProbes struct {
	step         probe   // engine work per message, fabric and logging included
	cases        probe   // one whole resolution
	eventsPerMsg float64 // trace events protocol.Sim records per message
}

// probeProtocol replays the workload's resolution on the bare protocol:
// protocol.Sim on the Deterministic fabric, same N, p raisers. The
// simulations are built and entered beforehand; only raising and draining is
// timed.
func probeProtocol(z probeSizes, n, p int) (protocolProbes, error) {
	cases := z.of(300)
	var out protocolProbes
	if p == 0 {
		return out, nil
	}
	tree := flatTree(n)
	all := members(n)
	sims := make([]*protocol.Sim, cases)
	for i := range sims {
		sims[i] = protocol.NewSim()
		for _, m := range all {
			sims[i].AddEngine(m)
		}
		if err := sims[i].EnterAll(protocol.Frame{Action: 1, Path: []ident.ActionID{1}, Members: all, Tree: tree}, all...); err != nil {
			return out, err
		}
	}
	var err error
	ns := cpuOf(func() {
		for _, sim := range sims {
			for i := 0; i < p; i++ {
				if _, e := sim.Engines[all[i]].RaiseLocal(excName(all[i])); e != nil {
					err = e
				}
			}
			if e := sim.Drain(1_000_000); e != nil {
				err = e
			}
		}
	})
	msgs, events := 0, 0
	for _, sim := range sims {
		msgs += sim.Log.TotalSends()
		events += len(sim.Log.Events())
	}
	out.step = probe{count: msgs, ns: ns}
	out.cases = probe{count: cases, ns: ns}
	if msgs > 0 {
		out.eventsPerMsg = float64(events) / float64(msgs)
	}
	return out, err
}

// probeResolve times the chooser's tree resolution over p concurrent raises.
func probeResolve(z probeSizes, n, p int) (probe, error) {
	rounds := z.of(200000)
	if p == 0 {
		p = 1
	}
	tree := flatTree(n)
	names := make([]string, p)
	for i := range names {
		names[i] = excName(ident.ObjectID(i + 1))
	}
	var err error
	ns := cpuOf(func() {
		for r := 0; r < rounds; r++ {
			if _, e := tree.Resolve(names); e != nil {
				err = e
			}
		}
	})
	return probe{count: rounds, ns: ns}, err
}

// atomicProbes are the atomic-object costs.
type atomicProbes struct {
	begin, add, update probe
	commit, abort      probe // count is records, not transactions
}

// atomicRecords is how many records one atomic action's transaction holds at
// the barrier: the hot counters' pending deltas and every participant's
// private keys under lock.
func atomicRecords(n int) int { return atomicKeys + n*atomicKeys }

// probeAtomic replays the atomic workload's transactions on a bare store, one
// open at a time as a client has them: n participants' worth of commuting
// adds on the hot counters, the same number of 2PL updates on private keys,
// then commit for three transactions in four and abort for the fourth. Each
// section is timed apart. The shape matters: a transaction's undo log grows
// with every update, so one long transaction costs three times as much per
// update as the action-sized ones the workload runs.
func probeAtomic(z probeSizes, n int) (atomicProbes, error) {
	var out atomicProbes
	var err error
	note := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	inc := func(v any) (any, error) { return v.(int) + 1, nil }
	store := atomicobj.NewStore()
	var hot, private []string
	seed := store.Begin()
	for k := 0; k < atomicKeys; k++ {
		hot = append(hot, hotKey(k))
		for _, m := range members(n) {
			private = append(private, privateKey(0, m, k))
		}
	}
	for _, key := range append(append([]string(nil), hot...), private...) {
		note(seed.Write(key, 0))
	}
	note(seed.Commit())

	begins := z.of(200000)
	out.begin = probe{count: begins, ns: cpuOf(func() {
		for i := 0; i < begins; i++ {
			_ = store.Begin()
		}
	})}

	txns, ops, records := z.of(400), n*atomicOps, atomicRecords(n)
	cpuOf(func() {
		mark := cpuSeconds()
		section := func(p *probe, count int) {
			now := cpuSeconds()
			p.ns += (now - mark) * 1e9
			p.count += count
			mark = now
		}
		for t := 0; t < txns; t++ {
			txn := store.Begin()
			section(&probe{}, 0) // Begin is timed above; restart the clock
			for i := 0; i < ops; i++ {
				note(txn.Add(hot[i%len(hot)], 1))
			}
			section(&out.add, ops)
			for i := 0; i < ops; i++ {
				note(txn.Update(private[i%len(private)], inc))
			}
			section(&out.update, ops)
			if t%4 == 3 {
				note(txn.Abort())
				section(&out.abort, records)
			} else {
				note(txn.Commit())
				section(&out.commit, records)
			}
		}
	})
	return out, err
}

// probeTraceRecord times trace.Log.Record on send events, the kind that also
// feeds the census.
func probeTraceRecord(z probeSizes) probe {
	events := z.of(200000)
	log := trace.NewLog()
	ev := trace.Event{Kind: trace.EvSend, Object: 1, Peer: 2, Action: 1, Label: protocol.KindAck}
	return probe{count: events, ns: cpuOf(func() {
		for i := 0; i < events; i++ {
			log.Record(ev)
		}
	})}
}

// emptyDefinition is the workload's action with nothing in it: same members,
// nobody raises, empty bodies. What it costs is core's own scaffolding.
func emptyDefinition(n int) core.Definition {
	ms := members(n)
	bodies := make(map[ident.ObjectID]core.Body, n)
	for _, m := range ms {
		bodies[m] = idleBody
	}
	return core.Definition{
		Spec:   core.ActionSpec{Name: "empty", Tree: flatTree(n), Members: ms, Handlers: noopHandlers(ms)},
		Bodies: bodies,
	}
}

// coreProbes are the measurements of core from outside.
type coreProbes struct {
	empty         probe   // empty actions on a warm server
	emptyEvents   float64 // trace events one empty action records
	firstActionMS float64 // first action on a fresh server: lazy bind and dial
	closeMS       float64 // Close of a warm server
}

// probeCore measures the empty action on a warm server of the workload's
// kind, and, over three fresh servers, the first action and Close.
func probeCore(z probeSizes, w *workload, seed int64) (coreProbes, error) {
	const rounds = 3
	actions := z.of(1000)
	var out coreProbes
	def := emptyDefinition(w.n)
	runOne := func(srv *core.Server) error {
		o, err := srv.Run(def)
		if err == nil && !o.Completed {
			err = fmt.Errorf("empty action did not complete: %s", summary(o))
		}
		return err
	}
	var firsts, closes []float64
	for r := 0; r < rounds; r++ {
		srv := core.NewServer(w.options(seed))
		start := time.Now()
		err := runOne(srv)
		firsts = append(firsts, float64(time.Since(start))/1e6)
		for i := 0; i < 50 && err == nil; i++ {
			err = runOne(srv)
		}
		if err == nil && r == 0 {
			srv.Trace().Reset()
			out.empty = probe{count: actions, ns: cpuOf(func() {
				for i := 0; i < actions && err == nil; i++ {
					err = runOne(srv)
				}
			})}
			out.emptyEvents = float64(len(srv.Trace().Events())) / float64(actions)
		}
		start = time.Now()
		srv.Close()
		closes = append(closes, float64(time.Since(start))/1e6)
		if err != nil {
			return out, err
		}
	}
	out.firstActionMS, out.closeMS = median(firsts), median(closes)
	return out, nil
}

// probeSleepFloor is the shortest sleep the box grants: the median of asking
// for 50 microseconds.
func probeSleepFloor(z probeSizes) float64 {
	got := make([]float64, z.of(40))
	for i := range got {
		start := time.Now()
		time.Sleep(50 * time.Microsecond)
		got[i] = float64(time.Since(start)) / 1e6
	}
	sort.Float64s(got)
	return percentile(got, 0.5)
}

// spinSink keeps the spin loop's result alive.
var spinSink uint64

// probeSpin times a fixed arithmetic loop: it tells a slow box from a slow
// build.
func probeSpin(z probeSizes) float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i, n := 0, z.of(20_000_000); i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return float64(time.Since(start)) / 1e6
}
