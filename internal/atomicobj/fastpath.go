// The commutativity fast path. Two companion papers motivate it
// (PAPERS.md): *Path-Sensitive Atomic Commit* (Soethout et al.) commits
// concurrent operations without coordination when their effect paths
// commute, and *Automating Fine Concurrency Control in Object-Oriented
// Databases* (Malta & Martinez) derives finer-than-object lock modes from
// method semantics. Here an operation declares its commutativity class; as
// long as every concurrent access to an object stays in one class, the
// operations append to a per-object delta log under the shard latch — no
// lock ownership, no waiting, no wait-die deaths — and fold into the
// committed value when their transaction commits (or vanish, exact-inverse,
// when it aborts). Non-commuting access must drain the log first: a lock
// acquisition waits for (or dies on, per wait-die) foreign records and
// materialises own-chain records into the value, so strict serializability
// is preserved. See docs/ATOMIC.md.

package atomicobj

import "fmt"

// Class is a commutativity class: operations of one class on one object
// commute with each other and may commit without 2PL coordination.
// Operations of distinct classes — including ReadWrite, the class of
// Read/Write/Update — do not commute and fall back to locking.
type Class uint8

// Commutativity classes.
const (
	// ReadWrite is the default class: arbitrary reads and writes, full 2PL.
	ReadWrite Class = iota
	// Increment adds a delta to an integer object; increments commute.
	Increment
	// SetInsert inserts elements into a set object (map[string]bool);
	// insertions commute.
	SetInsert
)

// String renders the class.
func (c Class) String() string {
	switch c {
	case ReadWrite:
		return "read-write"
	case Increment:
		return "increment"
	case SetInsert:
		return "set-insert"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Op is one typed operation for Txn.Apply, declaring its commutativity
// class. Construct with AddOp, InsertOp or UpdateOp.
type Op struct {
	class  Class
	delta  int
	elem   string
	update func(any) (any, error)
}

// AddOp returns an Increment-class op adding delta to an integer object.
func AddOp(delta int) Op { return Op{class: Increment, delta: delta} }

// InsertOp returns a SetInsert-class op inserting elem into a set object.
func InsertOp(elem string) Op { return Op{class: SetInsert, elem: elem} }

// UpdateOp returns a ReadWrite-class op: f runs under the ordinary 2PL
// protocol, exactly like Txn.Update.
func UpdateOp(f func(any) (any, error)) Op { return Op{class: ReadWrite, update: f} }

// Class returns the op's commutativity class.
func (op Op) Class() Class { return op.class }

// pendingRec is one transaction's accumulated contribution to an object's
// delta log. Records coalesce per owner: a transaction holds at most one
// record per object.
type pendingRec struct {
	owner *Txn
	delta int      // Increment: accumulated delta
	elems []string // SetInsert: accumulated elements
}

// Add adds delta to the integer object at key on the commutativity fast
// path. The object is created at commit if it does not exist.
func (t *Txn) Add(key string, delta int) error {
	return t.Apply(key, AddOp(delta))
}

// Insert inserts elem into the set object at key on the fast path.
func (t *Txn) Insert(key, elem string) error {
	return t.Apply(key, InsertOp(elem))
}

// Apply applies a typed operation to key. Commuting classes take the fast
// path; the ReadWrite class routes through the ordinary 2PL Update.
func (t *Txn) Apply(key string, op Op) error {
	switch op.class {
	case ReadWrite:
		if op.update == nil {
			return fmt.Errorf("atomicobj: ReadWrite op for %q has no update function", key)
		}
		return t.Update(key, op.update)
	case Increment, SetInsert:
		return t.applyCommuting(key, op)
	default:
		return fmt.Errorf("atomicobj: unknown op class %d", int(op.class))
	}
}

// applyCommuting is the fast path: when nothing conflicting stands in the
// way, the op joins the object's delta log under the shard latch alone.
func (t *Txn) applyCommuting(key string, op Op) error {
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
			return ErrTxnDone
		}
		sh.mu.Lock()
		o := sh.obj(key)
		holder := o.owner
		if holder == t || (holder != nil && t.hasAncestor(holder)) {
			// Inside our own lock the lock itself serialises access: apply
			// in place through the ordinary undo log, like a Write.
			err := t.applyInPlaceLocked(o, key, op)
			sh.mu.Unlock()
			t.fam.mu.Unlock()
			return err
		}
		if holder != nil {
			// A foreign lock means ReadWrite access is in flight, which
			// commutes with nothing: ordinary wait-die applies.
			if t.root < holder.root {
				parked, parkedOn = t.enqueueWaiterLocked(o), o
				sh.mu.Unlock()
				t.fam.mu.Unlock()
				<-parked.ch
				continue
			}
			holderID := holder.id
			sh.mu.Unlock()
			t.fam.mu.Unlock()
			return fmt.Errorf("%w: key %q held by txn %d", ErrWaitDie, key, holderID)
		}
		if len(o.pending) > 0 && o.pclass != op.class {
			// Two distinct commuting classes do not commute with each
			// other: fall back to coordination, which drains the log.
			sh.mu.Unlock()
			t.fam.mu.Unlock()
			return t.applyViaLock(key, op)
		}
		if o.exists && !classMatches(op.class, o.value) {
			sh.mu.Unlock()
			t.fam.mu.Unlock()
			return fmt.Errorf("%w: key %q holds %T, want a %s object", ErrClassMismatch, key, o.value, op.class)
		}
		if r, ok := oldestWaiterRoot(o.waiters); ok && r < t.root {
			// An older transaction is parked on this object (waiting for
			// the log to drain); younger appends die instead of starving
			// it — the wait-die asymmetry, applied to the log.
			sh.mu.Unlock()
			t.fam.mu.Unlock()
			return fmt.Errorf("%w: key %q awaited by older txn root %d", ErrWaitDie, key, r)
		}
		if !coalesceOwned(o.pending, t, op) {
			if len(o.pending) == 0 {
				o.pclass = op.class
			}
			rec := pendingRec{owner: t, delta: op.delta}
			if op.class == SetInsert {
				rec.elems = []string{op.elem}
			}
			o.pending = append(o.pending, rec)
			t.pendingKeys = append(t.pendingKeys, key)
		}
		sh.mu.Unlock()
		t.fam.mu.Unlock()
		return nil
	}
}

// applyViaLock applies a commuting op through full lock acquisition — the
// fallback when the object's log holds a different class.
func (t *Txn) applyViaLock(key string, op Op) error {
	sh, o, err := t.acquire(key)
	if err != nil {
		return err
	}
	err = t.applyInPlaceLocked(o, key, op)
	sh.mu.Unlock()
	t.fam.mu.Unlock()
	return err
}

// applyInPlaceLocked applies a commuting op to an object t already holds
// (directly or via an ancestor), through the ordinary undo log. Caller holds
// fam.mu and the object's shard mutex.
func (t *Txn) applyInPlaceLocked(o *object, key string, op Op) error {
	if o.exists && !classMatches(op.class, o.value) {
		return fmt.Errorf("%w: key %q holds %T, want a %s object", ErrClassMismatch, key, o.value, op.class)
	}
	t.logWriteLocked(o, key)
	if op.class == SetInsert {
		set := make(map[string]bool)
		if o.exists {
			old, _ := o.value.(map[string]bool)
			for k, v := range old {
				set[k] = v
			}
		}
		set[op.elem] = true
		o.value = set
	} else {
		n := 0
		if o.exists {
			n, _ = o.value.(int)
		}
		o.value = n + op.delta
	}
	o.exists = true
	o.dirty = true
	return nil
}

// classMatches reports whether a committed value can absorb ops of class c.
func classMatches(c Class, value any) bool {
	switch c {
	case Increment:
		_, ok := value.(int)
		return ok
	case SetInsert:
		_, ok := value.(map[string]bool)
		return ok
	default:
		return true
	}
}

// foreignPending reports whether o's delta log holds records owned outside
// t's ancestor chain, and the smallest owning root among them (the wait-die
// comparison point). Caller holds the object's shard mutex.
func (o *object) foreignPending(t *Txn) (int64, bool) {
	var min int64
	found := false
	for i := range o.pending {
		own := o.pending[i].owner
		if own == t || t.hasAncestor(own) {
			continue
		}
		if !found || own.root < min {
			min = own.root
			found = true
		}
	}
	return min, found
}

// oldestWaiterRoot returns the smallest root among the parked waiters.
//
//caa:noalloc
func oldestWaiterRoot(ws []*waiter) (int64, bool) {
	var min int64
	found := false
	for _, w := range ws {
		if !found || w.root < min {
			min = w.root
			found = true
		}
	}
	return min, found
}

// coalesceOwned folds op into an existing record owned by t, so a
// transaction hammering one counter keeps a single record — the apply hot
// loop of the fast path.
//
//caa:noalloc
func coalesceOwned(pending []pendingRec, t *Txn, op Op) bool {
	for i := range pending {
		if pending[i].owner != t {
			continue
		}
		if op.class == SetInsert {
			pending[i].elems = append(pending[i].elems, op.elem)
		} else {
			pending[i].delta += op.delta
		}
		return true
	}
	return false
}

// materializeLocked folds the object's (entirely own-chain) delta log into
// its value under the freshly taken lock, recording an undo entry that can
// restore both the value and the records of owners that outlive an abort of
// t. The entry always goes in, since it carries the records; under t's own
// lock it is also the pre-lock image, so later writes log nothing. Caller
// holds fam.mu and the shard mutex; foreign records must already be
// drained.
func (t *Txn) materializeLocked(o *object, key string) {
	if len(o.pending) == 0 {
		return
	}
	t.undo = append(t.undo, undoRec{key: key, prev: o.value, existed: o.exists,
		repend: o.pending, rependClass: o.pclass})
	if o.owner == t {
		o.logged = t
	}
	o.value = applyRecs(o.value, o.exists, o.pclass, o.pending)
	o.exists = true
	o.dirty = true
	o.pending = nil
}

// applyRecs folds delta-log records into a value.
func applyRecs(value any, exists bool, class Class, recs []pendingRec) any {
	if class == SetInsert {
		set := make(map[string]bool)
		if exists {
			old, _ := value.(map[string]bool)
			for k, v := range old {
				set[k] = v
			}
		}
		for i := range recs {
			for _, e := range recs[i].elems {
				set[e] = true
			}
		}
		return set
	}
	n := 0
	if exists {
		n, _ = value.(int)
	}
	for i := range recs {
		n += recs[i].delta
	}
	return n
}

// flushPendingLocked folds every delta-log record owned by the committing
// top-level transaction into the committed values, waking waiters of
// objects whose log drains empty. Per-object folds are atomic under the
// shard mutex; cross-object ordering does not matter because a pending
// object is invisible (Snapshot skips it) until its own fold. Caller holds
// fam.mu.
func (t *Txn) flushPendingLocked() {
	for _, key := range t.pendingKeys {
		sh := t.store.shardFor(key)
		sh.mu.Lock()
		if o := sh.objects[key]; o != nil && len(o.pending) > 0 {
			o.mergeOwnedLocked(t)
			if len(o.pending) == 0 {
				o.wakeAllLocked()
			}
		}
		sh.mu.Unlock()
	}
	t.pendingKeys = nil
}

// mergeOwnedLocked folds t's records into o's committed value and compacts
// the log. Caller holds the shard mutex.
func (o *object) mergeOwnedLocked(t *Txn) {
	if o.pclass == SetInsert {
		var elems []string
		for i := range o.pending {
			if o.pending[i].owner == t {
				elems = append(elems, o.pending[i].elems...)
			}
		}
		if len(elems) > 0 {
			// Copy-on-write: committed maps handed out by Read/Snapshot are
			// never mutated in place.
			set := make(map[string]bool, len(elems))
			if o.exists {
				old, _ := o.value.(map[string]bool)
				for k, v := range old {
					set[k] = v
				}
			}
			for _, e := range elems {
				set[e] = true
			}
			o.value = set
			o.exists = true
		}
		o.pending = discardOwned(o.pending, t)
		return
	}
	base := 0
	if o.exists {
		base, _ = o.value.(int)
	}
	rest, val, merged := foldIncrements(o.pending, t, base)
	o.pending = rest
	if merged {
		o.value = val
		o.exists = true
	}
}

// foldIncrements folds every increment record owned by t into base and
// compacts the survivors to the front of the log in place — the commit hot
// loop of the fast path.
//
//caa:noalloc
func foldIncrements(pending []pendingRec, t *Txn, base int) ([]pendingRec, int, bool) {
	merged := false
	keep := pending[:0]
	for i := range pending {
		if pending[i].owner == t {
			base += pending[i].delta
			merged = true
		} else {
			keep = append(keep, pending[i])
		}
	}
	return keep, base, merged
}

// discardOwned drops every record owned by t from the log, in place — the
// abort path's exact inverse: unmerged deltas simply vanish.
//
//caa:noalloc
func discardOwned(pending []pendingRec, t *Txn) []pendingRec {
	keep := pending[:0]
	for i := range pending {
		if pending[i].owner != t {
			keep = append(keep, pending[i])
		}
	}
	return keep
}

// discardPendingLocked removes every delta-log record owned by the aborting
// transaction, waking waiters of objects whose log drains empty. Caller
// holds fam.mu.
func (t *Txn) discardPendingLocked() {
	for _, key := range t.pendingKeys {
		sh := t.store.shardFor(key)
		sh.mu.Lock()
		if o := sh.objects[key]; o != nil && len(o.pending) > 0 {
			o.pending = discardOwned(o.pending, t)
			if len(o.pending) == 0 {
				o.wakeAllLocked()
			}
		}
		sh.mu.Unlock()
	}
	t.pendingKeys = nil
}

// rependLocked pushes the delta-log records consumed by an undone
// materialisation back onto the object — minus those owned by the aborting
// transaction itself, whose deltas vanish with it. Caller holds fam.mu and
// the object's shard mutex.
func rependLocked(o *object, rec *undoRec, aborter *Txn) {
	for i := range rec.repend {
		if rec.repend[i].owner == aborter {
			continue
		}
		if len(o.pending) == 0 {
			o.pclass = rec.rependClass
		}
		o.pending = append(o.pending, rec.repend[i])
	}
}

// reownPending reassigns from's delta-log records to to — nested commit
// absorbing the child's contributions.
//
//caa:noalloc
func reownPending(recs []pendingRec, from, to *Txn) {
	for i := range recs {
		if recs[i].owner == from {
			recs[i].owner = to
		}
	}
}
