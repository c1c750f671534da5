package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/atomicobj"
	"repro/internal/ident"
)

// Run-level errors.
var (
	// ErrActionFinished is returned by transactional operations after the
	// action's transaction committed or aborted.
	ErrActionFinished = errors.New("core: action transaction already finished")
	// ErrCancelled is reported when a run is torn down (context expiry).
	ErrCancelled = errors.New("core: run cancelled")
	// ErrSuspendedEntry is an internal condition: a nested entry was refused
	// because an exception resolution is already under way.
	ErrSuspendedEntry = errors.New("core: nested entry refused, resolution in progress")
)

// run is the state of one top-level CA-action execution — a session on the
// shared runtime: participants attach to the server's per-object dispatchers
// and the session's traffic, membership monitoring included, is multiplexed
// over long-lived transports under the session's root action tag.
type run struct {
	sys     *Server
	spec    ActionSpec       // the top-level action's, copied from the Definition
	members []ident.ObjectID // spec.Members, sorted

	mu        sync.Mutex
	instances map[*ActionSpec]*instance
	byID      map[ident.ActionID]*instance
	expelled  map[ident.ObjectID]bool // members removed by the membership service
	cancelled bool

	// Rejoin-mode state. preExpelled is the admission decision: members the
	// persistent group excluded when the run started; fixed before any body
	// launches and immutable after. snapshots records mid-run readmissions:
	// the state-transfer snapshot each rejoiner installed.
	preExpelled map[ident.ObjectID]bool
	snapshots   map[ident.ObjectID]any

	top          *instance
	participants map[ident.ObjectID]*participant
	attempt      int

	live     atomic.Int32  // bodies still running
	exited   chan struct{} // 1-buffered: the last body has returned
	timedOut atomic.Bool   // RunTimeout's deadline fired
}

func newRun(sys *Server, spec *ActionSpec, attempt int) *run {
	r := &run{
		sys:          sys,
		spec:         *spec,
		members:      spec.Members,
		attempt:      attempt,
		instances:    make(map[*ActionSpec]*instance),
		byID:         make(map[ident.ActionID]*instance),
		participants: make(map[ident.ObjectID]*participant, len(spec.Members)),
		exited:       make(chan struct{}, 1),
	}
	if !slices.IsSorted(r.members) {
		r.members = slices.Clone(r.members)
		slices.Sort(r.members)
	}
	return r
}

// instanceFor returns (creating on demand) the instance of spec nested under
// parent. The same *ActionSpec shared by all members maps to one instance.
func (r *run) instanceFor(spec *ActionSpec, parent *instance) (*instance, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if inst, ok := r.instances[spec]; ok {
		return inst, nil
	}
	if parent != nil { // the top-level spec was validated with its Definition
		if err := spec.Validate(); err != nil {
			return nil, err
		}
	}
	id := r.sys.allocAction()
	inst := &instance{
		run:         r,
		spec:        spec,
		id:          id,
		members:     r.frameMembers(spec.Members),
		parent:      parent,
		exitArrived: make(map[ident.ObjectID]bool),
	}
	if parent != nil {
		inst.path = append(append([]ident.ActionID{}, parent.path...), id)
		tx, err := parent.beginChild()
		if err != nil {
			return nil, err
		}
		inst.txn = tx
	} else {
		inst.path = []ident.ActionID{id}
		inst.txn = r.sys.store.Begin()
	}
	r.instances[spec] = inst
	r.byID[id] = inst
	// An instance created after an expulsion must not wait for the expelled
	// member either (inst is private here, so i.mu nests safely under r.mu).
	for obj := range r.expelled {
		inst.expel(obj)
	}
	return inst, nil
}

func (r *run) instanceByID(id ident.ActionID) *instance {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byID[id]
}

// cancel tears the run down: every participant unwinds with ErrCancelled.
func (r *run) cancel() {
	r.mu.Lock()
	if r.cancelled {
		r.mu.Unlock()
		return
	}
	r.cancelled = true
	parts := make([]*participant, 0, len(r.participants))
	for _, p := range r.participants {
		parts = append(parts, p)
	}
	r.mu.Unlock()
	for _, p := range parts {
		p.setSuspendLevel(levelCancelled)
	}
}

// instance is one action execution: the shared barrier, transaction and
// abort bookkeeping for all its members.
type instance struct {
	run     *run
	spec    *ActionSpec
	id      ident.ActionID
	members []ident.ObjectID // the frame's: spec.Members less the run's pre-expelled
	path    []ident.ActionID
	parent  *instance

	txmu    sync.Mutex
	txn     *atomicobj.Txn
	txnDone bool

	mu           sync.Mutex
	exitArrived  map[ident.ObjectID]bool
	expelled     map[ident.ObjectID]bool // members the barrier no longer waits for
	exitClosed   bool                    // the barrier has opened
	acceptFailed bool
	commitErr    error
	aborted      bool
}

// beginChild starts a child transaction under this instance's transaction.
func (i *instance) beginChild() (*atomicobj.Txn, error) {
	i.txmu.Lock()
	defer i.txmu.Unlock()
	if i.txnDone {
		return nil, ErrActionFinished
	}
	return i.txn.BeginChild()
}

func (i *instance) txnRead(key string) (any, error) {
	i.txmu.Lock()
	defer i.txmu.Unlock()
	if i.txnDone {
		return nil, ErrActionFinished
	}
	return i.txn.Read(key)
}

func (i *instance) txnWrite(key string, value any) error {
	i.txmu.Lock()
	defer i.txmu.Unlock()
	if i.txnDone {
		return ErrActionFinished
	}
	return i.txn.Write(key, value)
}

func (i *instance) txnUpdate(key string, f func(any) (any, error)) error {
	i.txmu.Lock()
	defer i.txmu.Unlock()
	if i.txnDone {
		return ErrActionFinished
	}
	return i.txn.Update(key, f)
}

func (i *instance) txnAdd(key string, delta int) error {
	i.txmu.Lock()
	defer i.txmu.Unlock()
	if i.txnDone {
		return ErrActionFinished
	}
	return i.txn.Add(key, delta)
}

func (i *instance) txnApply(key string, op atomicobj.Op) error {
	i.txmu.Lock()
	defer i.txmu.Unlock()
	if i.txnDone {
		return ErrActionFinished
	}
	return i.txn.Apply(key, op)
}

// abortTxn aborts the instance's transaction (idempotent). Used when
// abortion handlers run and when a resolution handler signals failure.
func (i *instance) abortTxn() {
	i.txmu.Lock()
	if !i.txnDone {
		i.txnDone = true
		_ = i.txn.Abort()
	}
	i.txmu.Unlock()
	// i.mu is taken after txmu is released: finishLocked holds i.mu while
	// touching txmu, so nesting them here would invert the lock order.
	i.mu.Lock()
	i.aborted = true
	i.mu.Unlock()
}

// arriveExit records obj at the completion barrier ("must leave it at the
// same time"). When the last member arrives, the acceptance test (if any)
// runs, the transaction commits or aborts and the barrier opens (exitOpen).
func (i *instance) arriveExit(obj ident.ObjectID) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.expelled[obj] {
		// An expelled member racing its own termination must not re-enter
		// the barrier accounting.
		return
	}
	i.exitArrived[obj] = true
	if !i.exitClosed && i.allArrivedLocked() {
		i.finishLocked()
	}
}

// exitOpen reports whether the completion barrier has opened.
func (i *instance) exitOpen() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.exitClosed
}

// finishLocked completes the action at the barrier: acceptance test, then
// transaction commit (into the parent for nested actions), then the barrier
// opens and the members waiting at it are woken. Caller holds i.mu.
func (i *instance) finishLocked() {
	defer func() {
		i.exitClosed = true
		for obj := range i.exitArrived {
			i.run.participants[obj].wakeBody()
		}
	}()
	if i.aborted {
		return
	}
	if i.spec.AcceptanceTest != nil && !i.spec.AcceptanceTest(&TxnView{inst: i}) {
		i.acceptFailed = true
		i.txmu.Lock()
		if !i.txnDone {
			i.txnDone = true
			_ = i.txn.Abort()
		}
		i.txmu.Unlock()
		return
	}
	i.txmu.Lock()
	if !i.txnDone {
		i.txnDone = true
		i.commitErr = i.txn.Commit()
	}
	i.txmu.Unlock()
	if i.commitErr != nil {
		i.commitErr = fmt.Errorf("commit %s: %w", i.id, i.commitErr)
	}
}

// exitStatus reads the barrier result once exitOpen.
func (i *instance) exitStatus() (acceptFailed bool, err error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.acceptFailed, i.commitErr
}
