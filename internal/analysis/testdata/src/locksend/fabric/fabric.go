// Package fabric exercises the locksend analyzer: channel sends and blocking
// delivery calls while a mutex is held are the deadlock shape the rule
// prevents; the copy-under-lock, send-after-release pattern is the fix.
package fabric

import "sync"

type Port struct{ ch chan int }

func (p *Port) Send(v int) { p.ch <- v }

type fanout struct {
	mu    sync.Mutex
	peers []*Port
	ch    chan int
}

func (f *fanout) bad(v int) {
	f.mu.Lock()
	f.ch <- v          // want `channel send while holding f.mu`
	f.peers[0].Send(v) // want `Send call while holding f.mu`
	f.mu.Unlock()
}

func (f *fanout) deferred(v int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.peers[0].Send(v) // want `Send call while holding f.mu`
}

func (f *fanout) good(v int) {
	f.mu.Lock()
	peers := make([]*Port, len(f.peers))
	copy(peers, f.peers)
	f.mu.Unlock()
	for _, p := range peers {
		p.Send(v)
	}
	f.ch <- v
}

func (f *fanout) branchy(v int, drop bool) {
	f.mu.Lock()
	if drop {
		f.mu.Unlock()
		return
	}
	// The unlock above is on the early-return path only: the lock is still
	// held here.
	f.ch <- v // want `channel send while holding f.mu`
	f.mu.Unlock()
}

func (f *fanout) spawned(v int) {
	f.mu.Lock()
	go func() {
		// The spawned goroutine does not hold the caller's lock.
		f.peers[0].Send(v)
	}()
	f.mu.Unlock()
}

type reader struct {
	mu  sync.RWMutex
	out chan int
}

func (r *reader) selectSend(v int) {
	r.mu.RLock()
	select {
	case r.out <- v: // want `channel send while holding r.mu`
	default:
	}
	r.mu.RUnlock()
}

func (r *reader) allowed(v int) {
	r.mu.RLock()
	//protolint:allow locksend the pump never takes this lock
	r.out <- v
	r.mu.RUnlock()
}

func (f *fanout) lockedInBranch(v int, exclusive bool) {
	if exclusive {
		f.mu.Lock()
	}
	// May-hold: the lock taken in the branch is still held after the join.
	f.ch <- v // want `channel send while holding f.mu`
	if exclusive {
		f.mu.Unlock()
	}
}

func ok(err error) bool { return err == nil }

type sink struct {
	mu   sync.Mutex
	port *Port
}

func (s *sink) Send(v int) error { s.port.Send(v); return nil }

func (s *sink) nested(v int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ok(s.Send(v)) // want `Send call while holding s.mu`
}

func localMutex(out chan int, v int) {
	var mu sync.Mutex
	mu.Lock()
	out <- v // want `channel send while holding mu`
	mu.Unlock()
}

func (f *fanout) inline(v int) {
	f.mu.Lock()
	func() {
		// Runs now, under the caller's lock.
		f.ch <- v // want `channel send while holding f.mu`
	}()
	f.mu.Unlock()
}

func each(fn func()) { fn() }

func (f *fanout) callback(v int) {
	each(func() {
		f.mu.Lock()
		f.ch <- v // want `channel send while holding f.mu`
		f.mu.Unlock()
	})
}
