package atomicobj

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestCascadeReleasesLocksForWaiters: aborting a parent (cascading into a
// live child that holds locks) must wake transactions waiting on those
// locks.
func TestCascadeReleasesLocksForWaiters(t *testing.T) {
	s := NewStore()
	older := s.Begin() // older: will wait
	parent := s.Begin()
	child, err := parent.BeginChild()
	if err != nil {
		t.Fatal(err)
	}
	// Wait: older has smaller id than parent... wait-die has the OLDER
	// transaction wait. Begin order: older(id1), parent(id2). The child
	// (of parent) acquires the lock; older will wait for it.
	if err := child.Write("k", 1); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		// older waits (its root id is smaller than the holder's).
		got <- older.Write("k", 2)
	}()
	select {
	case err := <-got:
		t.Fatalf("older should be waiting, returned %v", err)
	case <-time.After(10 * time.Millisecond):
	}
	// Cascading abort of the parent releases the child's lock.
	if err := parent.Abort(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("older write after cascade: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter was not woken by cascading abort")
	}
	if err := older.Commit(); err != nil {
		t.Fatal(err)
	}
	if s.Snapshot()["k"] != 2 {
		t.Errorf("k = %v, want the waiter's write", s.Snapshot()["k"])
	}
}

// TestWaiterAbortedWhileWaiting: a transaction that is aborted (e.g. by its
// CA action) while blocked on a lock returns ErrTxnDone from the blocked
// operation instead of hanging.
func TestWaiterAbortedWhileWaiting(t *testing.T) {
	s := NewStore()
	older := s.Begin()
	younger := s.Begin()
	if err := younger.Write("k", 1); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		got <- older.Write("k", 2) // older waits for younger
	}()
	time.Sleep(5 * time.Millisecond)
	// Abort the waiter from outside.
	abortErr := make(chan error, 1)
	go func() { abortErr <- older.Abort() }()
	// Release the lock so the condition variable broadcasts.
	if err := younger.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if !errors.Is(err, ErrTxnDone) && err != nil {
			t.Fatalf("blocked write returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked write did not return")
	}
	<-abortErr
}

// TestLockFairnessManyWaiters: several older transactions waiting on one
// young holder all proceed eventually after release. Once the holder is gone
// the waiters take the lock in whatever order they are scheduled, and one that
// gets its turn after an older sibling took it is younger than the new holder:
// wait-die refuses it, correctly, and it does what every caller of the store
// does with ErrWaitDie, which is to abort and retry as a new transaction.
func TestLockFairnessManyWaiters(t *testing.T) {
	s := NewStore()
	const waiters = 6
	olds := make([]*Txn, waiters)
	for i := range olds {
		olds[i] = s.Begin()
	}
	holder := s.Begin() // youngest: everyone waits for it
	if err := holder.Write("k", 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i, tx := range olds {
		wg.Add(1)
		go func(i int, tx *Txn) {
			defer wg.Done()
			for {
				err := tx.Update("k", func(v any) (any, error) {
					return v.(int) + 1, nil
				})
				if errors.Is(err, ErrWaitDie) {
					_ = tx.Abort() // nothing written yet
					tx = s.Begin()
					continue
				}
				if err != nil {
					errs[i] = err
					return
				}
				errs[i] = tx.Commit()
				return
			}
		}(i, tx)
	}
	time.Sleep(5 * time.Millisecond)
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	if got := s.Snapshot()["k"]; got != waiters {
		t.Errorf("k = %v, want %d", got, waiters)
	}
}

// TestReadCreatesNoObject: reading a missing key must not create it.
func TestReadCreatesNoObject(t *testing.T) {
	s := NewStore()
	tx := s.Begin()
	if _, err := tx.Read("ghost"); !errors.Is(err, ErrNoSuchObject) {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Snapshot()["ghost"]; ok {
		t.Error("read materialised a ghost object")
	}
}
