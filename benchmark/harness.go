package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
)

// config is one run of one workload. main fills it from the flags and the
// workload's fixed sizes; the smoke test shrinks the sizes.
type config struct {
	wl   *workload
	seed int64

	setupReps int           // set-up repetitions, spread over the run; the median is setup_s
	warmup    int           // W
	countK    int           // K
	windows   int           // timed-phase windows
	window    time.Duration // window length
	watchdog  time.Duration // per-action limit

	probes probeSizes // traced run only

	// trace turns the timed phase into the traced run: spans are recorded on
	// every other window, so the traced and untraced figures that
	// harness.trace_overhead_share compares see the same drift.
	trace bool
}

func defaultConfig(w *workload, seed int64, seconds int, trace bool) config {
	window := w.window
	if trace {
		// Half the time goes to windows, split between spans on and off; the
		// layer probes take a good part of the other half. Windows of at
		// most a second, so that even the slowest workload has a few pairs.
		seconds = (seconds + 1) / 2
		if window > time.Second {
			window = time.Second
		}
	}
	windows := int(time.Duration(seconds) * time.Second / window)
	if windows < 2 {
		windows = 2 // one with spans on and one with spans off, when traced
	}
	return config{
		wl: w, seed: seed,
		setupReps: 6,
		warmup:    w.warmup,
		countK:    w.countK,
		windows:   windows,
		window:    window,
		watchdog:  10 * time.Second,
		probes:    probeSizes{div: 1},
		trace:     trace,
	}
}

// harness drives one server through the run shape: set-up, count phase,
// timed phase, final oracle.
type harness struct {
	cfg      config
	variants [clients][]*variant
	srv      *core.Server

	attempted atomic.Int64
	failed    atomic.Int64
	errMu     sync.Mutex
	firstErr  error

	// committed[c] counts the atomic actions that committed on client c's
	// private keys, for the exact-sum oracle.
	committed [clients]atomic.Int64

	// busySince[c] is when client c's current action was submitted (unix
	// nanoseconds, 0 when idle); the watchdog reads it.
	busySince [clients]atomic.Int64
}

func newHarness(cfg config) *harness {
	h := &harness{cfg: cfg}
	for c := range h.variants {
		if cfg.wl.atomic {
			h.variants[c] = cfg.wl.atomicVariants(c, streamRand(cfg.seed, streamVariants+c))
		} else if c == 0 {
			h.variants[c] = cfg.wl.raiseVariants()
		} else {
			h.variants[c] = h.variants[0]
		}
	}
	return h
}

func (h *harness) generator(stream, client int) *generator {
	return &generator{w: h.cfg.wl, rng: streamRand(h.cfg.seed, stream), variants: h.variants[client]}
}

func (h *harness) fail(err error) {
	h.failed.Add(1)
	h.errMu.Lock()
	if h.firstErr == nil {
		h.firstErr = err
	}
	h.errMu.Unlock()
}

// do submits one action on behalf of client c, waits for it and runs the
// oracle. It returns when it called Submit, when Submit returned and when
// the outcome arrived.
func (h *harness) do(srv *core.Server, c int, v *variant) (start, submitted, done time.Time) {
	h.attempted.Add(1)
	start = time.Now()
	h.busySince[c].Store(start.UnixNano())
	p, err := srv.Submit(v.def)
	submitted = time.Now()
	var out core.Outcome
	if err == nil {
		out, err = p.Wait()
	}
	done = time.Now()
	h.busySince[c].Store(0)
	if err := v.check(out, err); err != nil {
		h.fail(err)
	} else if h.cfg.wl.atomic && !v.reject && srv == h.srv {
		h.committed[c].Add(1)
	}
	return start, submitted, done
}

// startWatchdog fails the run when one action outlives cfg.watchdog: the
// stuck action counts as failed, every goroutine is dumped, and the process
// exits non-zero without waiting for a server that may never drain.
func (h *harness) startWatchdog() (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(h.cfg.watchdog / 10)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case now := <-tick.C:
				for c := range h.busySince {
					since := h.busySince[c].Load()
					if since != 0 && now.Sub(time.Unix(0, since)) > h.cfg.watchdog {
						fmt.Fprintf(os.Stderr, "benchmark: watchdog: client %d's action exceeded %v\n", c, h.cfg.watchdog)
						_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
						os.Exit(3)
					}
				}
			}
		}
	}()
	return func() { close(quit); <-done }
}

// seedObjects writes the atomic workload's counters at zero, so that every
// later access finds a committed integer.
func (h *harness) seedObjects(srv *core.Server) error {
	if !h.cfg.wl.atomic {
		return nil
	}
	txn := srv.Store().Begin()
	for k := 0; k < atomicKeys; k++ {
		if err := txn.Write(hotKey(k), 0); err != nil {
			return err
		}
		for c := 0; c < clients; c++ {
			for _, m := range members(h.cfg.wl.n) {
				if err := txn.Write(privateKey(c, m, k), 0); err != nil {
					return err
				}
			}
		}
	}
	return txn.Commit()
}

// setupOnce is one set-up repetition: NewServer, seeding, W sequential
// warm-up actions (which bind the dispatchers, dial the sockets and fill the
// engine pool) and, unless the server is the one to be measured, Close. It
// returns how long that took.
func (h *harness) setupOnce(keep bool) (seconds float64, err error) {
	gen := h.generator(streamWarmup, 0)
	start := time.Now()
	srv := core.NewServer(h.cfg.wl.options(h.cfg.seed))
	if err := h.seedObjects(srv); err != nil {
		srv.Close()
		return 0, fmt.Errorf("seeding atomic objects: %w", err)
	}
	if keep {
		h.srv = srv
	}
	for i := 0; i < h.cfg.warmup; i++ {
		h.do(srv, 0, gen.next())
	}
	if !keep {
		srv.Close()
	}
	return time.Since(start).Seconds(), nil
}

// counts is what the count phase reads off the server and the runtime.
type counts struct {
	k          int
	events     int
	mallocs    uint64
	allocBytes uint64
	retained   int64 // live-heap growth over the phase, bytes
}

// messageCounts are per-action message counts over a set of windows.
type messageCounts struct {
	byKind                map[string]float64 // protocol sends by kind
	msgs                  float64            // protocol sends in total
	sent, delivered, lost float64            // netsim sends, deliveries, drops
}

// perAction sums the windows' censuses and netsim counters and divides by
// their actions.
func perAction(wins []windowStats) messageCounts {
	c := messageCounts{byKind: make(map[string]float64)}
	actions := 0.0
	for _, w := range wins {
		actions += float64(w.actions)
		for kind, n := range w.census {
			c.byKind[kind] += float64(n)
		}
		c.sent += float64(w.net.Sent)
		c.delivered += float64(w.net.Delivered)
		c.lost += float64(w.net.Dropped)
	}
	if actions == 0 {
		return c
	}
	for kind := range c.byKind {
		c.byKind[kind] /= actions
		c.msgs += c.byKind[kind]
	}
	c.sent /= actions
	c.delivered /= actions
	c.lost /= actions
	return c
}

// netDelta is the netsim counters' growth from before to after.
func netDelta(before, after netsim.Stats) netsim.Stats {
	return netsim.Stats{
		Sent:      after.Sent - before.Sent,
		Delivered: after.Delivered - before.Delivered,
		Dropped:   after.Dropped - before.Dropped,
	}
}

// countPhase runs exactly K actions, K/2 on each client, on a freshly reset
// trace log and reads the counters. K is fixed so that slice doubling, and
// with it the allocation figures, repeat from run to run; both clients run
// because the number of raises a storm accepts, and so what it allocates,
// settles only when actions overlap as they do in the timed phase.
func (h *harness) countPhase() counts {
	log := h.srv.Trace()
	log.Reset()
	settledGC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := h.generator(streamCount+c, c)
			for i := 0; i < h.cfg.countK/clients; i++ {
				h.do(h.srv, c, gen.next())
			}
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	mallocs, allocBytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	settledGC()
	runtime.ReadMemStats(&after)
	return counts{
		k:          h.cfg.countK / clients * clients,
		events:     len(log.Events()),
		mallocs:    mallocs,
		allocBytes: allocBytes,
		retained:   int64(after.HeapAlloc) - int64(before.HeapAlloc),
	}
}

// settledGC collects twice: the first cycle moves sync.Pool contents (the
// server's pooled engines among them) to the victim cache, the second frees
// them, so that the live heap read afterwards does not depend on which half
// of that two-step a measurement happened to land in.
func settledGC() {
	runtime.GC()
	runtime.GC()
}

// span is the harness's record of one action: the action span with its two
// children, core.submit (start..submitted) and core.wait (submitted..end).
// Times are nanoseconds since the timed phase began.
type span struct {
	client, window        int
	start, submitted, end int64
}

// windowStats is one timed window.
type windowStats struct {
	traced  bool
	actions int
	rate    float64   // sum over clients of actions / busy time, 1/s
	cpu     float64   // user+sys CPU over the window, seconds
	lat     []float64 // Submit..Wait per action, ms
	gcs     uint32
	gcPause uint64         // ns
	gcCPU   float64        // the collector's CPU over the window, seconds
	census  map[string]int // protocol sends by kind, from the window's trace log
	net     netsim.Stats   // netsim counters over the window
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// timedPhase runs one discarded warm-up window and then cfg.windows
// measured ones. Inside a window both clients submit back to back; between
// windows they park, the server is idle, and the harness samples, resets the
// trace log and collects garbage off the clock. The set-up repetitions
// beyond the first run at evenly spaced window boundaries, on servers of
// their own: the box's speed wanders over seconds, and repetitions spread
// over the run see more of that than repetitions back to back would.
func (h *harness) timedPhase() (wins []windowStats, spans []span, setups []float64, err error) {
	p := &phase{h: h, epoch: time.Now()}
	for c := range p.gens {
		p.gens[c] = h.generator(c, c)
	}
	warm := h.cfg.window
	if warm > 500*time.Millisecond {
		warm = 500 * time.Millisecond
	}
	p.window(-1, warm, false)
	p.spans = nil

	reps := h.cfg.setupReps - 1
	every := h.cfg.windows
	if reps > 0 && h.cfg.windows/reps > 0 {
		every = h.cfg.windows / reps
	}
	for wi := 0; wi < h.cfg.windows; wi++ {
		wins = append(wins, p.window(wi, h.cfg.window, h.cfg.trace && wi%2 == 1))
		if (wi+1)%every == 0 && len(setups) < reps {
			t, err := h.setupOnce(false)
			if err != nil {
				return nil, nil, nil, err
			}
			setups = append(setups, t)
		}
	}
	return wins, p.spans, setups, nil
}

// phase is the state the windows of one timed phase share.
type phase struct {
	h      *harness
	epoch  time.Time
	gens   [clients]*generator
	spans  []span
	latCap int // per-client sample capacity, sized from the window before
}

// window runs one window of the given length and returns what it measured.
func (p *phase) window(wi int, length time.Duration, traced bool) windowStats {
	h := p.h
	h.srv.Trace().Reset()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	type clientResult struct {
		lat   []float64
		spans []span
		busy  time.Duration
	}
	var res [clients]clientResult
	for c := range res {
		res[c].lat = make([]float64, 0, p.latCap)
	}
	var wg sync.WaitGroup
	net0 := h.srv.NetworkStats()
	gc0 := gcCPUSeconds()
	cpu0 := cpuSeconds()
	start := time.Now()
	deadline := start.Add(length)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &res[c]
			last := start
			for last.Before(deadline) {
				t0, submitted, done := h.do(h.srv, c, p.gens[c].next())
				r.lat = append(r.lat, float64(done.Sub(t0))/1e6)
				if traced {
					r.spans = append(r.spans, span{
						client: c, window: wi,
						start: int64(t0.Sub(p.epoch)), submitted: int64(submitted.Sub(p.epoch)), end: int64(done.Sub(p.epoch)),
					})
				}
				last = done
			}
			r.busy = last.Sub(start)
		}(c)
	}
	wg.Wait()
	cpu1 := cpuSeconds()
	for h.srv.InFlight() != 0 {
		runtime.Gosched()
	}
	runtime.ReadMemStats(&ms1)

	w := windowStats{
		traced: traced, cpu: cpu1 - cpu0, gcCPU: gcCPUSeconds() - gc0,
		gcs: ms1.NumGC - ms0.NumGC, gcPause: ms1.PauseTotalNs - ms0.PauseTotalNs,
		census: h.srv.Trace().Census(),
		net:    netDelta(net0, h.srv.NetworkStats()),
	}
	for c := range res {
		w.actions += len(res[c].lat)
		if res[c].busy > 0 {
			w.rate += float64(len(res[c].lat)) / res[c].busy.Seconds()
		}
		w.lat = append(w.lat, res[c].lat...)
		p.spans = append(p.spans, res[c].spans...)
	}
	p.latCap = w.actions/clients*5/4 + 16
	return w
}

// timing is what a set of windows says about speed.
type timing struct {
	windows    int
	actions    int
	rate       float64 // actions per second
	cpuUS      float64 // CPU microseconds per action
	cpuSeconds float64
	gcCPU      float64
	lat        []float64 // sorted
	gcs        uint32
	gcPause    uint64
	windowCV   float64 // over all offered windows, before selection
}

// windowCV is the coefficient of variation of the windows' rates.
func windowCV(wins []windowStats) float64 {
	rates := make([]float64, len(wins))
	for i, w := range wins {
		rates[i] = w.rate
	}
	mean, sd := meanStddev(rates)
	if mean == 0 {
		return 0
	}
	return sd / mean
}

// quietHalf ranks the windows by rate and keeps the upper half; the timing
// metrics come from it alone. Gross interference on a shared box (a
// neighbour's burst, a stolen core) only ever slows a window, so the faster
// half is the half it touched least. It does not remove the box's slower
// wandering, which moves whole runs; see README.md.
func quietHalf(wins []windowStats) timing {
	t := timing{windowCV: windowCV(wins)}
	if len(wins) == 0 {
		return t
	}
	ranked := append([]windowStats(nil), wins...)
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].rate > ranked[j].rate })
	keep := ranked[:(len(ranked)+1)/2]
	var rateSum float64
	for _, w := range keep {
		t.actions += w.actions
		rateSum += w.rate
		t.cpuSeconds += w.cpu
		t.gcCPU += w.gcCPU
		t.lat = append(t.lat, w.lat...)
		t.gcs += w.gcs
		t.gcPause += w.gcPause
	}
	t.windows = len(keep)
	t.rate = rateSum / float64(len(keep))
	if t.actions > 0 {
		t.cpuUS = t.cpuSeconds * 1e6 / float64(t.actions)
	}
	sort.Float64s(t.lat)
	return t
}

// finish runs the end-of-run oracle: exact atomic-object sums and Close
// returning.
func (h *harness) finish() {
	if h.cfg.wl.atomic {
		h.checkSums()
	}
	closed := make(chan struct{})
	go func() { h.srv.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(h.cfg.watchdog):
		h.fail(fmt.Errorf("Close did not return within %v", h.cfg.watchdog))
	}
}

func (h *harness) checkSums() {
	snap := h.srv.Store().Snapshot()
	var total int64
	for c := range h.committed {
		total += h.committed[c].Load()
	}
	hot := 0
	for k := 0; k < atomicKeys; k++ {
		v, _ := snap[hotKey(k)].(int)
		hot += v
	}
	if want := int(total) * h.cfg.wl.n * atomicOps; hot != want {
		h.fail(fmt.Errorf("hot counters sum to %d, want %d (%d committed actions)", hot, want, total))
	}
	for c := range h.committed {
		for _, m := range members(h.cfg.wl.n) {
			sum := 0
			for k := 0; k < atomicKeys; k++ {
				v, _ := snap[privateKey(c, m, k)].(int)
				sum += v
			}
			if want := int(h.committed[c].Load()) * atomicOps; sum != want {
				h.fail(fmt.Errorf("client %d %s private keys sum to %d, want %d", c, m, sum, want))
			}
		}
	}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// percentile interpolates the q-quantile of a sorted sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func meanStddev(v []float64) (mean, sd float64) {
	if len(v) == 0 {
		return 0, 0
	}
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	for _, x := range v {
		sd += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(sd / float64(len(v)))
}
