// Package ab exercises the intra-package half of the lockorder analyzer:
// direct cycles, call-propagated edges, interface dispatch, and the shapes
// that must stay clean (consistent order, released locks, TryLock, local
// mutexes).
package ab

import "sync"

type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

type C struct{ mu sync.Mutex }

type D struct{ mu sync.Mutex }

var (
	ga A
	gb B
)

// lockAB and lockBA acquire the two classes in opposite orders: each inner
// acquisition closes the cycle.
func lockAB(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want `lock ordering cycle`
	b.mu.Unlock()
}

func lockBA(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock() // want `lock ordering cycle`
	a.mu.Unlock()
	b.mu.Unlock()
}

// outer holds A while calling a helper that acquires B: the edge comes from
// the call, propagated through the helper's summary.
func outer() {
	ga.mu.Lock()
	helperB() // want `lock ordering cycle`
	ga.mu.Unlock()
}

func helperB() {
	gb.mu.Lock()
	gb.mu.Unlock()
}

// Toucher's only implementation in this package acquires A, so dispatching
// through the interface while holding B closes the A/B cycle too.
type Toucher interface{ Touch() }

func (a *A) Touch() {
	a.mu.Lock()
	a.mu.Unlock()
}

func viaInterface(l Toucher) {
	gb.mu.Lock()
	l.Touch() // want `lock ordering cycle`
	gb.mu.Unlock()
}

// sibling locks two instances of the same class: instance identity cannot be
// ordered statically, so this is flagged as a self-edge.
func sibling(x, y *C) {
	x.mu.Lock()
	y.mu.Lock() // want `same lock class`
	y.mu.Unlock()
	x.mu.Unlock()
}

// orderedSiblings locks two instances of C in an order the analyzer cannot
// see, with the reason on record; staleSiblings' allow excuses a lock taken
// after the first was released, which is no finding.
func orderedSiblings(x, y *C) {
	x.mu.Lock()
	//protolint:allow lockorder callers pass x before y in a fixed global order
	y.mu.Lock()
	y.mu.Unlock()
	x.mu.Unlock()
}

func staleSiblings(x, y *C) {
	x.mu.Lock()
	x.mu.Unlock()
	//protolint:allow lockorder callers pass x before y in a fixed global order // want `allow lockorder suppresses nothing`
	y.mu.Lock()
	y.mu.Unlock()
}

// lockCD is the only C/D ordering: consistent, clean.
func lockCD(c *C, d *D) {
	c.mu.Lock()
	d.mu.Lock()
	d.mu.Unlock()
	c.mu.Unlock()
}

// tryNoEdge uses TryLock while holding D: non-blocking acquisition creates no
// deadlock edge, so the reverse D->C order stays clean.
func tryNoEdge(c *C, d *D) {
	d.mu.Lock()
	if c.mu.TryLock() {
		c.mu.Unlock()
	}
	d.mu.Unlock()
}

// released unlocks before the next acquisition: no overlap, no edge.
func released(c *C, d *D) {
	d.mu.Lock()
	d.mu.Unlock()
	c.mu.Lock()
	c.mu.Unlock()
}

// branches that release their lock leave nothing held at the join.
func branchy(c *C, d *D, cond bool) {
	if cond {
		d.mu.Lock()
		d.mu.Unlock()
	}
	c.mu.Lock()
	c.mu.Unlock()
}

// localMu has no identity across goroutines: holding it creates no class and
// no edges in either direction.
func localMu(d *D) {
	var mu sync.Mutex
	mu.Lock()
	d.mu.Lock()
	d.mu.Unlock()
	mu.Unlock()
}
