// Package atomicobj implements the paper's external atomic objects (§3):
// "objects that are external to the CA action and can be shared with other
// actions and objects concurrently must be atomic and individually
// responsible for their own integrity". It provides a transactional in-memory
// object store with strict two-phase locking, explicit start/commit/abort
// (the three functions the paper lets exception handlers call, Fig. 2a) and
// nested transactions whose effects and locks are absorbed by the parent on
// commit, matching nested CA actions having "all properties of a nested
// transaction in the terms of atomic objects".
//
// Deadlocks between competing actions are avoided with the wait-die rule:
// an older transaction waits for a younger lock holder, a younger one is
// refused immediately (ErrWaitDie) and is expected to abort and retry.
//
// Two mechanisms keep coordination local instead of store-wide (see
// docs/ATOMIC.md):
//
//   - The store is hash-sharded: each object lives on one of shardCount
//     shards with its own mutex, and blocked transactions park on per-object
//     wait lists with targeted wakeups — independent objects never contend
//     on a common lock and a release never wakes strangers.
//
//   - Operations that declare a commutativity class (Txn.Add, Txn.Apply —
//     fastpath.go) skip 2PL entirely while every concurrent access to the
//     object stays in the same class: they append to a per-object delta log
//     under the shard latch and fold in at commit. Non-commuting access
//     drains the log first, preserving strict serializability.
package atomicobj

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Errors returned by the store and transactions.
var (
	// ErrNoSuchObject is returned by Read for a key never written.
	ErrNoSuchObject = errors.New("atomicobj: no such object")
	// ErrTxnDone is returned when operating on a committed or aborted txn.
	ErrTxnDone = errors.New("atomicobj: transaction already finished")
	// ErrWaitDie is returned when a younger transaction requests a lock held
	// by an older one; the caller should abort and retry.
	ErrWaitDie = errors.New("atomicobj: lock refused (wait-die), abort and retry")
	// ErrActiveChildren is returned by Commit on a txn with live children
	// (Abort instead cascades into them).
	ErrActiveChildren = errors.New("atomicobj: transaction has active children")
	// ErrClassMismatch is returned by Apply when an operation's commutativity
	// class does not fit the object's committed value (e.g. an Increment
	// against a string object).
	ErrClassMismatch = errors.New("atomicobj: operation class does not fit the object's value")
)

// TxnState is the lifecycle state of a transaction.
type TxnState int

// Transaction states.
const (
	TxnActive TxnState = iota + 1
	TxnCommitted
	TxnAborted
)

// String renders the state.
func (s TxnState) String() string {
	switch s {
	case TxnActive:
		return "active"
	case TxnCommitted:
		return "committed"
	case TxnAborted:
		return "aborted"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// shardCount is the number of store shards; a power of two so shardFor can
// mask instead of mod.
const shardCount = 64

// shard is one hash shard of the store: a private mutex over a private
// object map. Transactions touching disjoint shards share no lock at all.
type shard struct {
	mu      sync.Mutex
	objects map[string]*object
	_       [40]byte // keep neighbouring shard mutexes off one cache line
}

// obj returns the shard's record for key, creating an empty (non-existing)
// one. Caller holds sh.mu.
func (sh *shard) obj(key string) *object {
	o, ok := sh.objects[key]
	if !ok {
		o = &object{}
		sh.objects[key] = o
	}
	return o
}

type object struct {
	value  any
	exists bool
	// dirty marks an uncommitted in-place write: the value must stay out of
	// Snapshot until the owning transaction's fate is decided. Cleared on
	// lock release (commit folds first, abort restores first).
	dirty bool
	owner *Txn // topmost lock acquirer; nil when free
	// logged is the lock owner whose undo log already holds the object's
	// pre-lock image, so further writes under the same lock tenure log
	// nothing. Invariant: logged is nil or equal to owner.
	logged *Txn

	// pending is the commutativity fast path's delta log (fastpath.go):
	// same-class operations append here without taking the lock and fold
	// into the committed value when their transaction commits. All records
	// share the class pclass. Invariant: owner != nil implies pending is
	// empty — acquisition drains foreign records and materialises own-chain
	// ones into the value.
	pclass  Class
	pending []pendingRec

	// waiters are the transactions parked on this object, woken when the
	// lock is released or the delta log drains — targeted wakeups, never a
	// store-wide broadcast.
	waiters []*waiter
}

// waiter parks one transaction on one object. wake closes the channel
// exactly once; the object's releaser and the transaction's own abort may
// race to call it.
type waiter struct {
	ch   chan struct{}
	root int64
	once sync.Once
}

func (w *waiter) wake() { w.once.Do(func() { close(w.ch) }) }

// removeWaiter drops w from o's wait list if still present (a waiter woken
// by its own abort removes itself; releases clear the list wholesale).
// Caller holds the object's shard mutex.
func (o *object) removeWaiter(w *waiter) {
	for i, x := range o.waiters {
		if x == w {
			o.waiters = append(o.waiters[:i], o.waiters[i+1:]...)
			return
		}
	}
}

// wakeAllLocked wakes every transaction parked on o — only this object's
// waiters. Caller holds the object's shard mutex.
func (o *object) wakeAllLocked() {
	for _, w := range o.waiters {
		w.wake()
	}
	o.waiters = nil
}

// family is the mutex shared by a top-level transaction and all its nested
// descendants: one CA action's transaction tree is one unit of concurrent
// state (sibling nested transactions run on separate goroutines, and Abort
// and State are called across goroutines). Keeping it per-family instead of
// store-wide means independent actions share no coordination point.
type family struct {
	mu sync.Mutex
}

// Store is a transactional object store. The zero value is not usable;
// construct with NewStore.
type Store struct {
	nextID atomic.Int64
	shards [shardCount]shard
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].objects = make(map[string]*object)
	}
	return s
}

// shardFor hashes key onto its shard (FNV-1a).
//
//caa:noalloc
func (s *Store) shardFor(key string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &s.shards[h&(shardCount-1)]
}

// Begin starts a new top-level transaction. It touches no shared lock:
// transaction identity is an atomic counter and each top-level transaction
// brings its own family mutex.
func (s *Store) Begin() *Txn {
	id := s.nextID.Add(1)
	t := &Txn{store: s, id: id, root: id, state: TxnActive}
	t.fam = &t.ownFam
	return t
}

// Snapshot returns a copy of the committed values of all existing objects.
// Objects with uncommitted state — an in-place write under a live lock, or
// pending commuting deltas — are skipped, so a snapshot never leaks
// mid-transaction values. Each shard is copied under its own mutex; the
// result is per-object committed, not a store-wide atomic cut.
func (s *Store) Snapshot() map[string]any {
	out := make(map[string]any)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, o := range sh.objects {
			if o.exists && !o.dirty && len(o.pending) == 0 {
				out[k] = o.value
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// waiterCount reports the parked waiters across all shards — test
// instrumentation for the no-leaked-waiters property.
func (s *Store) waiterCount() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, o := range sh.objects {
			n += len(o.waiters)
		}
		sh.mu.Unlock()
	}
	return n
}

type undoRec struct {
	key     string
	prev    any
	existed bool
	// repend holds the delta-log records consumed when this entry was taken
	// (lock acquisition materialises the log, fastpath.go): an abort pushes
	// back the records whose owners outlive it.
	repend      []pendingRec
	rependClass Class
}

// Txn is a (possibly nested) transaction. A single transaction must not be
// shared between goroutines, but siblings of one family may run concurrently
// and Abort/State may be called from other goroutines (a CA action aborting
// its nested actions); the family mutex guards the tree's shared fields.
type Txn struct {
	store  *Store
	id     int64
	root   int64 // root ancestor's id, used for wait-die priority
	parent *Txn
	fam    *family
	ownFam family // a top-level transaction's family; children share fam

	// All fields below are guarded by fam.mu.
	state       TxnState
	undo        []undoRec
	acquired    []string // keys this txn newly locked
	pendingKeys []string // keys holding delta-log records owned by this txn
	children    []*Txn   // live (active) child transactions
	waiter      *waiter  // set while parked, so an abort can wake this txn
}

// ID returns the transaction's unique identifier.
func (t *Txn) ID() int64 { return t.id }

// State returns the lifecycle state.
func (t *Txn) State() TxnState {
	t.fam.mu.Lock()
	defer t.fam.mu.Unlock()
	return t.state
}

// BeginChild starts a nested transaction. The child's effects become the
// parent's on commit and vanish on abort.
func (t *Txn) BeginChild() (*Txn, error) {
	t.fam.mu.Lock()
	defer t.fam.mu.Unlock()
	if t.state != TxnActive {
		return nil, ErrTxnDone
	}
	id := t.store.nextID.Add(1)
	child := &Txn{store: t.store, id: id, root: t.root, parent: t, fam: t.fam, state: TxnActive}
	t.children = append(t.children, child)
	return child, nil
}

// dropChildLocked removes a finished child from t's live list. Caller holds
// fam.mu.
func (t *Txn) dropChildLocked(child *Txn) {
	for i, c := range t.children {
		if c == child {
			t.children = append(t.children[:i], t.children[i+1:]...)
			return
		}
	}
}

// Read returns the current value of key, acquiring its lock (reads lock
// exclusively: the store provides strict isolation, not read sharing).
func (t *Txn) Read(key string) (any, error) {
	sh, o, err := t.acquire(key)
	if err != nil {
		return nil, err
	}
	defer t.fam.mu.Unlock()
	defer sh.mu.Unlock()
	if !o.exists {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchObject, key)
	}
	return o.value, nil
}

// Write sets key to value, creating the object if necessary.
func (t *Txn) Write(key string, value any) error {
	sh, o, err := t.acquire(key)
	if err != nil {
		return err
	}
	t.logWriteLocked(o, key)
	o.value = value
	o.exists = true
	o.dirty = true
	sh.mu.Unlock()
	t.fam.mu.Unlock()
	return nil
}

// logWriteLocked records o's pre-image in t's undo log before an in-place
// write, once per lock tenure: under its own lock t logs only the first
// write, whose record restores the pre-lock value on abort; under an
// ancestor's lock t logs every write, so a child's abort stays exact. Caller
// holds fam.mu and the object's shard mutex.
func (t *Txn) logWriteLocked(o *object, key string) {
	if o.owner == t && o.logged == t {
		return
	}
	t.undo = append(t.undo, undoRec{key: key, prev: o.value, existed: o.exists})
	if o.owner == t {
		o.logged = t
	}
}

// Update applies f to the current value of key and writes the result back.
func (t *Txn) Update(key string, f func(any) (any, error)) error {
	v, err := t.Read(key)
	if err != nil {
		return err
	}
	nv, err := f(v)
	if err != nil {
		return err
	}
	return t.Write(key, nv)
}

// Commit finishes the transaction. For a nested transaction the undo log,
// lock ownership and delta-log records transfer to the parent; for a
// top-level transaction the pending deltas fold into the committed values
// and all locks are released.
func (t *Txn) Commit() error {
	t.fam.mu.Lock()
	defer t.fam.mu.Unlock()
	if t.state != TxnActive {
		return ErrTxnDone
	}
	if len(t.children) > 0 {
		return ErrActiveChildren
	}
	t.state = TxnCommitted
	if t.parent != nil {
		t.absorbIntoParentLocked()
		return nil
	}
	t.flushPendingLocked()
	t.releaseLocked()
	t.undo = nil
	return nil
}

// absorbIntoParentLocked moves a committed child's undo log, lock ownership
// and delta-log records to its parent — the child's effects become the
// parent's, vanishing if the parent later aborts. Caller holds fam.mu.
func (t *Txn) absorbIntoParentLocked() {
	p := t.parent
	p.dropChildLocked(t)
	for i := range t.undo {
		reownPending(t.undo[i].repend, t, p)
	}
	p.undo = append(p.undo, t.undo...)
	for _, key := range t.acquired {
		sh := t.store.shardFor(key)
		sh.mu.Lock()
		if o := sh.objects[key]; o != nil && o.owner == t {
			// The child's first record, now in p's log, is the pre-lock
			// image, so p inherits the logged mark with the lock.
			o.owner = p
			if o.logged == t {
				o.logged = p
			}
			p.acquired = append(p.acquired, key)
		}
		sh.mu.Unlock()
	}
	for _, key := range t.pendingKeys {
		sh := t.store.shardFor(key)
		sh.mu.Lock()
		if o := sh.objects[key]; o != nil {
			reownPending(o.pending, t, p)
		}
		sh.mu.Unlock()
	}
	p.pendingKeys = append(p.pendingKeys, t.pendingKeys...)
	t.undo, t.acquired, t.pendingKeys = nil, nil, nil
}

// Abort undoes every write made by this transaction (and by its committed
// children), discards its pending deltas and releases the locks it acquired.
// Live nested transactions are aborted first, innermost-first — aborting a
// CA action aborts everything running inside it.
func (t *Txn) Abort() error {
	t.fam.mu.Lock()
	defer t.fam.mu.Unlock()
	if t.state != TxnActive {
		return ErrTxnDone
	}
	t.abortLocked()
	return nil
}

// abortLocked aborts t and, recursively, its live children. Caller holds
// fam.mu.
func (t *Txn) abortLocked() {
	for len(t.children) > 0 {
		t.children[len(t.children)-1].abortLocked()
	}
	t.state = TxnAborted
	if t.waiter != nil {
		// Parked on some object from another goroutine: wake it so the
		// blocked operation returns ErrTxnDone.
		t.waiter.wake()
		t.waiter = nil
	}
	// Backwards, so a key's earliest record, its pre-lock image, is restored
	// last.
	for i := len(t.undo) - 1; i >= 0; i-- {
		rec := &t.undo[i]
		sh := t.store.shardFor(rec.key)
		sh.mu.Lock()
		if o := sh.objects[rec.key]; o != nil {
			o.value = rec.prev
			o.exists = rec.existed
			rependLocked(o, rec, t)
		}
		sh.mu.Unlock()
	}
	t.undo = nil
	t.discardPendingLocked()
	if t.parent != nil {
		t.parent.dropChildLocked(t)
	}
	t.releaseLocked()
}

// acquire takes key's lock for t under strict 2PL with wait-die, draining
// the object's foreign delta log first (commuting deltas and ReadWrite
// access do not commute — the path-incompatible rule falls back to
// coordination). On success BOTH fam.mu and the key's shard mutex are held
// and the object's own-chain delta log has been materialised into its value;
// on error neither lock is held.
func (t *Txn) acquire(key string) (*shard, *object, error) {
	sh := t.store.shardFor(key)
	var parked *waiter
	var parkedOn *object
	for {
		if parked != nil {
			sh.mu.Lock()
			parkedOn.removeWaiter(parked)
			sh.mu.Unlock()
			parked, parkedOn = nil, nil
		}
		t.fam.mu.Lock()
		t.waiter = nil
		if t.state != TxnActive {
			t.fam.mu.Unlock()
			return nil, nil, ErrTxnDone
		}
		sh.mu.Lock()
		o := sh.obj(key)
		holder := o.owner
		if holder == nil || holder == t || t.hasAncestor(holder) {
			minRoot, foreign := o.foreignPending(t)
			if !foreign {
				if holder == nil {
					o.owner = t
					t.acquired = append(t.acquired, key)
				}
				t.materializeLocked(o, key)
				return sh, o, nil
			}
			if t.root < minRoot {
				// Older than every foreign delta owner: wait for the drain.
				parked, parkedOn = t.enqueueWaiterLocked(o), o
				sh.mu.Unlock()
				t.fam.mu.Unlock()
				<-parked.ch
				continue
			}
			sh.mu.Unlock()
			t.fam.mu.Unlock()
			return nil, nil, fmt.Errorf("%w: key %q has pending deltas of txn root %d", ErrWaitDie, key, minRoot)
		}
		if t.root < holder.root {
			// Older transaction waits for the younger holder.
			parked, parkedOn = t.enqueueWaiterLocked(o), o
			sh.mu.Unlock()
			t.fam.mu.Unlock()
			<-parked.ch
			continue
		}
		// Younger transaction dies rather than waits.
		holderID := holder.id
		sh.mu.Unlock()
		t.fam.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: key %q held by txn %d", ErrWaitDie, key, holderID)
	}
}

// enqueueWaiterLocked registers t on o's wait list for a targeted wakeup
// (lock release, delta-log drain, or t's own abort). Caller holds fam.mu and
// the object's shard mutex and must release BOTH before blocking on the
// returned waiter's channel; the unlocks stay in the caller so the lock-order
// analysis sees the loop's back edge holds nothing. A woken waiter may still
// sit on o's list (abort-path wakeup) and must be removed before parking
// again.
func (t *Txn) enqueueWaiterLocked(o *object) *waiter {
	w := &waiter{ch: make(chan struct{}), root: t.root}
	o.waiters = append(o.waiters, w)
	t.waiter = w
	return w
}

// hasAncestor reports whether a is an ancestor of t.
func (t *Txn) hasAncestor(a *Txn) bool {
	for cur := t.parent; cur != nil; cur = cur.parent {
		if cur == a {
			return true
		}
	}
	return false
}

// releaseLocked frees every lock t acquired, clearing the dirty mark (the
// value underneath is final: commit folds first, abort restores first) and
// waking exactly the freed objects' waiters. Caller holds fam.mu.
func (t *Txn) releaseLocked() {
	for _, key := range t.acquired {
		sh := t.store.shardFor(key)
		sh.mu.Lock()
		if o := sh.objects[key]; o != nil && o.owner == t {
			o.owner = nil
			o.logged = nil
			o.dirty = false
			o.wakeAllLocked()
		}
		sh.mu.Unlock()
	}
	t.acquired = nil
}
