package transport

import (
	"sync"
	"sync/atomic"

	"repro/internal/ident"
)

// Verdict is a fault-injection decision for one message.
type Verdict int

// Fault verdicts.
const (
	// Deliver passes the message through unchanged.
	Deliver Verdict = iota
	// Drop silently discards the message.
	Drop
	// Duplicate delivers the message twice, back to back on its pair (FIFO
	// order is preserved; the copies are adjacent).
	Duplicate
)

// FaultPolicy decides the fate of one message. It is the one place faults
// are injected: the sending fabric calls it once per Send and keeps no fault
// state; a policy that needs state (a per-pair counter, a set of cuts) keeps
// it itself, safe for concurrent use by every sender at once.
type FaultPolicy func(m Message) Verdict

// copies is the one verdict-to-copies switch: it asks the policy (nil
// delivers everything), tells the sink what was sent, dropped or duplicated,
// and returns how many copies of m the fabric delivers.
//
//caa:noalloc
func copies(faults FaultPolicy, sink Sink, m Message) int {
	n := 1
	if faults != nil {
		switch faults(m) {
		case Drop:
			n = 0
		case Duplicate:
			n = 2
		case Deliver:
			// n stays 1.
		}
	}
	if sink != nil {
		sink.Sent(m)
		switch n {
		case 0:
			sink.Dropped(m)
		case 2:
			sink.Duplicated(m)
		}
	}
	return n
}

// splitmix64 is the SplitMix64 mixing function: a tiny, statistically solid
// way to derive an independent uniform draw from a counter.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// SeededFaults returns a deterministic drop/duplicate schedule: the verdict
// for the k-th message on an ordered pair is a pure function of (seed, from,
// to, k), with per-message drop probability dropRate and duplication
// probability dupRate (both in [0,1), evaluated in that order, mirroring
// netsim.Config's fault model). The policy counts each pair's messages itself,
// so it never depends on cross-pair interleaving: the same schedule yields the
// same delivered multiset on every backend. Each call returns a fresh
// schedule; share one among fabrics only when each pair's sends leave from
// one of them.
func SeededFaults(seed int64, dropRate, dupRate float64) FaultPolicy {
	var mu sync.Mutex
	seq := make(map[pair]uint64)
	return func(m Message) Verdict {
		key := pair{from: m.From, to: m.To}
		mu.Lock()
		seq[key]++
		k := seq[key]
		mu.Unlock()
		h := splitmix64(uint64(seed) ^ splitmix64(uint64(m.From)<<32|uint64(uint32(m.To))))
		u := float64(splitmix64(h^k)>>11) / (1 << 53)
		switch {
		case dropRate > 0 && u < dropRate:
			return Drop
		case dupRate > 0 && u < dropRate+dupRate:
			return Duplicate
		default:
			return Deliver
		}
	}
}

// Partitions is a network partition as a FaultPolicy: named groups of
// objects, each splitting the world into its members and everybody else. A
// message gets through only if sender and receiver are on the same side of
// every group (an isolated object is a one-member group). Install the Verdict
// method value as a fabric's Faults; Set and Heal may run while traffic flows.
// The groups are a copy-on-write snapshot behind an atomic pointer, so with
// no cut a send costs one atomic load. The zero value has no cut.
type Partitions struct {
	mu   sync.Mutex // serialises Set and Heal
	cuts atomic.Pointer[map[string]map[ident.ObjectID]bool]
}

// Set installs (or replaces) the named group. An empty object list heals it.
func (p *Partitions) Set(name string, objs ...ident.ObjectID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	next := make(map[string]map[ident.ObjectID]bool)
	if cur := p.cuts.Load(); cur != nil {
		for k, g := range *cur {
			next[k] = g
		}
	}
	delete(next, name)
	if len(objs) > 0 {
		g := make(map[ident.ObjectID]bool, len(objs))
		for _, o := range objs {
			g[o] = true
		}
		next[name] = g
	}
	if len(next) == 0 {
		p.cuts.Store(nil)
		return
	}
	p.cuts.Store(&next)
}

// Heal removes the named group. What it dropped stays lost.
func (p *Partitions) Heal(name string) { p.Set(name) }

// Verdict drops a message crossing any group and delivers the rest.
//
//caa:noalloc
func (p *Partitions) Verdict(m Message) Verdict {
	if cur := p.cuts.Load(); cur != nil {
		for _, g := range *cur {
			if g[m.From] != g[m.To] {
				return Drop
			}
		}
	}
	return Deliver
}
