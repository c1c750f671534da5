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
)

// run is the state of one top-level CA-action execution — a session on the
// shared runtime: participants attach to the server's per-object dispatchers
// and the session's traffic, membership monitoring included, is multiplexed
// over long-lived transports under the session's root action tag.
type run struct {
	sys     *Server
	spec    ActionSpec       // the top-level action's, copied from the Definition
	members []ident.ObjectID // spec.Members, sorted
	top     instance         // the top-level action; its slab holds the run's participants

	mu        sync.Mutex
	nested    []*instance             // in the order their first Enclose made them
	expelled  map[ident.ObjectID]bool // members removed by the membership service
	cancelled bool

	// Rejoin-mode state. preExpelled is the admission decision: members the
	// persistent group excluded when the run started; fixed before any body
	// launches and immutable after. snapshots records mid-run readmissions:
	// the state-transfer snapshot each rejoiner installed.
	preExpelled map[ident.ObjectID]bool
	snapshots   map[ident.ObjectID]any

	attempt  int
	seq      atomic.Int64   // the last sequence number the run's record handed out
	live     atomic.Int32   // bodies still running
	exited   sync.WaitGroup // 1 until the last body has returned
	timedOut atomic.Bool    // RunTimeout's deadline fired
}

func newRun(sys *Server, spec *ActionSpec, attempt int) *run {
	r := &run{
		sys:     sys,
		spec:    *spec,
		members: spec.Members,
		attempt: attempt,
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
	for _, inst := range r.nested {
		if inst.spec == spec {
			return inst, nil
		}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	tx, err := parent.beginChild()
	if err != nil {
		return nil, err
	}
	inst := &instance{}
	inst.init(r, spec, spec.Members, parent, tx)
	r.nested = append(r.nested, inst)
	return inst, nil
}

func (r *run) instanceByID(id ident.ActionID) *instance {
	if id == r.top.id {
		return &r.top
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, inst := range r.nested {
		if inst.id == id {
			return inst
		}
	}
	return nil
}

// cancel tears the run down: every participant unwinds with ErrCancelled.
func (r *run) cancel() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cancelled {
		return
	}
	r.cancelled = true
	for k := range r.top.slab {
		if p := r.top.slab[k].ctx.p; p != nil { // nil until it has joined
			p.setSuspendLevel(levelCancelled)
		}
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
	pathBuf [4]ident.ActionID // path's backing array unless nested deeper
	view    TxnView           // the acceptance test's and every handler's
	slab    []member

	txmu    sync.Mutex
	txn     *atomicobj.Txn
	txnDone bool

	mu           sync.Mutex
	expelled     map[ident.ObjectID]bool // members the barrier no longer waits for
	exitClosed   bool                    // the barrier has opened
	acceptFailed bool
	commitErr    error
	aborted      bool
}

// member is a member's slot in its instance's slab: it runs one body scope
// and at most one resolved handler there. A slab is never reused, so a kept
// *Context, *RecoveryContext or *TxnView names the finished action for good.
type member struct {
	ctx     Context // ctx.p is the member's participant once it has entered
	rctx    RecoveryContext
	arrived bool // at the completion barrier; guarded by the instance's mu
}

// init sets up i for spec, with the transaction tx and one slot per member,
// in the order of members. The caller holds r.mu, or no participant exists.
func (i *instance) init(r *run, spec *ActionSpec, members []ident.ObjectID, parent *instance, tx *atomicobj.Txn) {
	id := r.sys.allocAction()
	i.run, i.spec, i.id, i.txn = r, spec, id, tx
	i.members = r.frameMembers(spec.Members)
	i.path = i.pathBuf[:0]
	if parent != nil {
		i.path = append(i.path, parent.path...)
	}
	i.path = append(i.path, id)
	i.view.inst = i
	i.slab = make([]member, len(members))
	for k, obj := range members {
		i.slab[k].rctx = RecoveryContext{Object: obj, Action: id, View: &i.view}
	}
	// The barrier does not wait for members already expelled (i is private
	// here, so i.mu nests safely under r.mu).
	for obj := range r.expelled {
		i.expel(obj)
	}
}

// member returns obj's slot, or nil when obj is not a member.
//
//caa:noalloc
func (i *instance) member(obj ident.ObjectID) *member {
	for k := range i.slab {
		if i.slab[k].rctx.Object == obj {
			return &i.slab[k]
		}
	}
	return nil
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

// arriveExit records p, whose body is at level in this instance, at the
// completion barrier ("must leave it at the same time"). When the last member
// arrives, the acceptance test (if any) runs, the transaction commits or
// aborts and the barrier opens (exitOpen).
func (i *instance) arriveExit(p *participant, level int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.expelled[p.obj] {
		// An expelled member racing its own termination must not re-enter
		// the barrier accounting.
		return
	}
	if p.suspension() <= level {
		return // the body unwinds into a resolution; see withdrawExit
	}
	i.member(p.obj).arrived = true
	if !i.exitClosed && i.allArrivedLocked() {
		i.finishLocked()
	}
}

// withdrawExit takes back the arrival of obj, whose body a resolution at this
// action has suspended, before its engine acknowledges the exception.
func (i *instance) withdrawExit(obj ident.ObjectID) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if !i.exitClosed {
		i.member(obj).arrived = false
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
		for k := range i.slab {
			if i.slab[k].arrived {
				i.slab[k].ctx.p.wakeBody()
			}
		}
	}()
	if i.aborted {
		return
	}
	if i.spec.AcceptanceTest != nil && !i.spec.AcceptanceTest(&i.view) {
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
