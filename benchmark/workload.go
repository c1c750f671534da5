package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/exception"
	"repro/internal/ident"
	"repro/internal/netsim"
)

// clients is C, the number of closed-loop client goroutines. Two callers that
// each wait for their outcome keep both cores of the review box busy without
// queueing a third action behind them.
const clients = 2

// root is the root of every workload's flat exception tree: two or more
// concurrent raises resolve to it.
const root = "omega"

// atomic-workload shape: each participant does atomicOps commuting adds over
// the hot counters shared by every client, and atomicOps read-write updates
// over keys private to (client, participant).
const (
	atomicOps  = 64
	atomicKeys = 4
)

// workload is one traffic mix: the server it runs on and the actions it
// submits. The sizes (warm-up W, count-phase K, window length) are fixed per
// workload so that one set-up repetition is about half a second and the count
// phase allocates identically from run to run.
type workload struct {
	name string
	why  string

	n       int // members O1..On of every action
	raisers int // members that raise at body start, drawn from the seed
	atomic  bool

	options func(seed int64) core.Options

	warmup int           // W: sequential warm-up actions per set-up repetition
	countK int           // K: actions of the count phase, half on each client
	window time.Duration // timed-phase window length
}

var workloads = []*workload{
	{
		name: "single",
		why:  "N=4, one seeded raiser, raw transport on instant netsim: nine messages, so per-action scaffolding in core dominates",
		n:    4, raisers: 1,
		options: func(int64) core.Options { return core.Options{Transport: core.TransportRaw} },
		warmup:  3000, countK: 2000, window: 500 * time.Millisecond,
	},
	{
		name: "storm",
		why:  "N=8, all eight raise at once and resolve to the root: ~115 messages, so the per-message path (engine, netsim, transport, dispatcher) dominates",
		n:    8, raisers: 8,
		options: func(int64) core.Options { return core.Options{Transport: core.TransportRaw} },
		warmup:  700, countK: 500, window: 500 * time.Millisecond,
	},
	{
		name: "tcp",
		why:  "N=4, two seeded raisers over loopback TCP with R3 acks: the only workload where wire codec, framing and sockets do the work and netsim does none",
		n:    4, raisers: 2,
		options: func(int64) core.Options { return core.Options{Transport: core.TransportTCP} },
		warmup:  1000, countK: 1000, window: 500 * time.Millisecond,
	},
	{
		name: "atomic",
		why:  "N=4, nobody raises; 512 atomic-object operations per action (fast-path adds on shared hot counters, 2PL updates on private keys), a seeded 25% rejected at the barrier: atomicobj dominates, no messages",
		n:    4, atomic: true,
		options: func(int64) core.Options { return core.Options{Transport: core.TransportRaw} },
		warmup:  2000, countK: 1000, window: 500 * time.Millisecond,
	},
	{
		name: "delay-lossy",
		why:  "N=4, two seeded raisers over R3 on 2 ms links with 1% seeded loss and 20 ms retransmission: latency is serial hops and timers, not CPU, so CPU optimisations should leave it alone",
		n:    4, raisers: 2,
		options: func(seed int64) core.Options {
			return core.Options{
				Transport:    core.TransportReliable,
				WireEncoding: true,
				Retransmit:   20 * time.Millisecond,
				Network: netsim.Config{
					Latency:  netsim.FixedLatency(2 * time.Millisecond),
					DropRate: 0.01,
					Seed:     seed,
				},
			}
		},
		warmup: 20, countK: 160, window: 2 * time.Second,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// variant is one pre-built action definition together with what the oracle
// expects of its outcome. Definitions are immutable once built, so the same
// variant may be in flight on both clients at once.
type variant struct {
	id     int
	def    core.Definition
	raise  []string // exceptions raised; the outcome resolves to one of them or to the root
	reject bool     // atomic: the acceptance test rejects, the transaction aborts

	keyOrder []int // atomic: the seeded order in which the bodies walk their keys
}

// check is the per-action oracle.
func (v *variant) check(out core.Outcome, err error) error {
	switch {
	case err != nil:
		return err
	case v.reject:
		if !out.AcceptanceFailed || out.Completed {
			return fmt.Errorf("variant %d: want acceptance failure, got %+v", v.id, summary(out))
		}
	case !out.Completed || out.AcceptanceFailed || out.Signalled != "":
		return fmt.Errorf("variant %d: want completion, got %+v", v.id, summary(out))
	case !v.resolvesTo(out.Resolved):
		return fmt.Errorf("variant %d: resolved %q, raised %v", v.id, out.Resolved, v.raise)
	}
	return nil
}

// resolvesTo reports whether resolved is a legal resolution of the variant's
// raises: the root when several were accepted, or the lone exception when the
// others were suppressed before they were raised.
func (v *variant) resolvesTo(resolved string) bool {
	if len(v.raise) == 0 {
		return resolved == ""
	}
	if len(v.raise) > 1 && resolved == root {
		return true
	}
	for _, e := range v.raise {
		if resolved == e {
			return true
		}
	}
	return false
}

func summary(out core.Outcome) string {
	return fmt.Sprintf("completed=%v resolved=%q signalled=%q acceptanceFailed=%v",
		out.Completed, out.Resolved, out.Signalled, out.AcceptanceFailed)
}

func members(n int) []ident.ObjectID {
	m := make([]ident.ObjectID, n)
	for i := range m {
		m[i] = ident.ObjectID(i + 1)
	}
	return m
}

func excName(obj ident.ObjectID) string { return fmt.Sprintf("exc%d", int(obj)) }

// flatTree declares one exception per member under the root.
func flatTree(n int) *exception.Tree {
	tb := exception.NewBuilder(root)
	for _, m := range members(n) {
		tb.Add(excName(m), root)
	}
	return tb.MustBuild()
}

func noopHandlers(ms []ident.ObjectID) map[ident.ObjectID]core.HandlerSet {
	noop := core.HandlerSet{Default: func(*core.RecoveryContext, exception.Exception) (string, error) {
		return "", nil
	}}
	hs := make(map[ident.ObjectID]core.HandlerSet, len(ms))
	for _, m := range ms {
		hs[m] = noop
	}
	return hs
}

func idleBody(*core.Context) error { return nil }

// raiseVariants builds one definition per subset of size w.raisers of the n
// members, in lexicographic order.
func (w *workload) raiseVariants() []*variant {
	ms := members(w.n)
	tree := flatTree(w.n)
	handlers := noopHandlers(ms)
	var out []*variant
	var subset func(from int, picked []ident.ObjectID)
	subset = func(from int, picked []ident.ObjectID) {
		if len(picked) == w.raisers {
			v := &variant{id: len(out)}
			bodies := make(map[ident.ObjectID]core.Body, w.n)
			for _, m := range ms {
				bodies[m] = idleBody
			}
			for _, m := range picked {
				exc := excName(m)
				v.raise = append(v.raise, exc)
				bodies[m] = func(ctx *core.Context) error {
					ctx.Raise(exc)
					return nil
				}
			}
			v.def = core.Definition{
				Spec:   core.ActionSpec{Name: w.name, Tree: tree, Members: ms, Handlers: handlers},
				Bodies: bodies,
			}
			out = append(out, v)
			return
		}
		for i := from; i < w.n; i++ {
			subset(i+1, append(picked[:len(picked):len(picked)], ms[i]))
		}
	}
	subset(0, nil)
	return out
}

func hotKey(k int) string { return fmt.Sprintf("hot/%d", k) }

func privateKey(client int, obj ident.ObjectID, k int) string {
	return fmt.Sprintf("priv/%d/%d/%d", client, int(obj), k)
}

// atomicOrders is how many seeded key orders are pre-built per client.
const atomicOrders = 8

// atomicVariants builds, for one client, atomicOrders seeded key orders times
// {commit, reject}. The orders come from rng, so they depend on the seed.
func (w *workload) atomicVariants(client int, rng *rand.Rand) []*variant {
	ms := members(w.n)
	tree := flatTree(w.n)
	handlers := noopHandlers(ms)
	inc := func(v any) (any, error) { return v.(int) + 1, nil }
	var out []*variant
	for o := 0; o < atomicOrders; o++ {
		order := rng.Perm(atomicKeys)
		bodies := make(map[ident.ObjectID]core.Body, w.n)
		for _, m := range ms {
			hot := make([]string, atomicKeys)
			priv := make([]string, atomicKeys)
			for i, k := range order {
				hot[i] = hotKey(k)
				priv[i] = privateKey(client, m, k)
			}
			bodies[m] = func(ctx *core.Context) error {
				for i := 0; i < atomicOps; i++ {
					if err := ctx.Add(hot[i%atomicKeys], 1); err != nil {
						return err
					}
					if err := ctx.Update(priv[i%atomicKeys], inc); err != nil {
						return err
					}
				}
				return nil
			}
		}
		for _, reject := range []bool{false, true} {
			accept := !reject
			out = append(out, &variant{
				id:       len(out),
				reject:   reject,
				keyOrder: order,
				def: core.Definition{
					Spec: core.ActionSpec{
						Name: w.name, Tree: tree, Members: ms, Handlers: handlers,
						AcceptanceTest: func(*core.TxnView) bool { return accept },
					},
					Bodies: bodies,
				},
			})
		}
	}
	return out
}

// generator is one seeded stream of actions. Each client, the warm-up and the
// count phase own a stream, so the sequence a stream yields depends only on
// (seed, stream) and never on how the clients interleave.
type generator struct {
	w        *workload
	rng      *rand.Rand
	variants []*variant
}

// Stream identifiers beyond the client numbers.
const (
	streamWarmup   = 100
	streamCount    = 200 // + client
	streamVariants = 300 // + client
)

func streamRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

// next draws the stream's next action.
func (g *generator) next() *variant {
	if !g.w.atomic {
		return g.variants[g.rng.Intn(len(g.variants))]
	}
	idx := 2 * g.rng.Intn(atomicOrders)
	if g.rng.Intn(4) == 0 {
		idx++ // the seeded 25% the acceptance test rejects
	}
	return g.variants[idx]
}
