package core

import "sync"

// task is one piece of per-action work the server's worker pool runs: a
// participant's mailbox drain, its body, a resolved handler, or a submitted
// action's run. It travels by value to a parked worker, so handing one over
// allocates nothing.
type task struct {
	op   taskOp
	p    *participant // taskDrain, taskBody, taskHandler
	body Body         // taskBody
	inst *instance    // taskHandler
	exc  string       // taskHandler
	pend *Pending     // taskSubmit
}

type taskOp uint8

const (
	taskDrain   taskOp = iota // p.drain
	taskBody                  // p.runBody(body)
	taskHandler               // p.runHandler(inst, exc)
	taskSubmit                // pend's runAttempt, then its release and done
)

// workerPool holds the server's parked workers. Each idle worker waits on its
// own 1-buffered channel (a hand-off never blocks: a parked worker's channel
// is empty). The most recently idle is handed the next task, so a stack grown
// by one action serves the next instead of growing again from the minimum. A
// worker is started only when none is idle, so a server running one action
// after another starts no goroutine per action.
type workerPool struct {
	mu      sync.Mutex
	idle    []chan task // most recently idle last
	started int         // workers ever started
	closed  bool
	stopped sync.WaitGroup // the idle workers Close stopped
}

// spawn runs t on a worker. The worker takes the token t's work holds (if
// any) from the caller: spawn itself changes nothing on the clock.
//
//caa:noalloc
func (s *Server) spawn(t task) {
	wp := &s.workers
	wp.mu.Lock()
	if n := len(wp.idle); n > 0 {
		w := wp.idle[n-1]
		wp.idle = wp.idle[:n-1]
		wp.mu.Unlock()
		w <- t
		return
	}
	wp.started++
	wp.mu.Unlock()
	go s.work(t) //protolint:allow noalloc a new worker is started only when none is idle; once the pool has grown to the server's peak concurrency no action reaches here
}

// work is a worker goroutine: it runs t, parks, and runs whatever it is
// handed next, until Close stops it. A worker busy when Close comes exits
// when its task returns.
func (s *Server) work(t task) {
	w := make(chan task, 1)
	for {
		s.runTask(t)
		t = task{} // a parked worker keeps no participant or run alive
		if !s.workers.park(w) {
			return
		}
		var ok bool
		if t, ok = <-w; !ok {
			s.workers.stopped.Done()
			return
		}
	}
}

func (s *Server) runTask(t task) {
	switch t.op {
	case taskDrain:
		t.p.drain()
	case taskBody:
		t.p.runBody(t.body)
	case taskHandler:
		t.p.runHandler(t.inst, t.exc)
	case taskSubmit:
		s.runSubmitted(t.pend)
	default:
		panic("core: unknown task")
	}
}

// park puts the worker waiting on w back on the idle stack, or reports false
// once the pool is closed.
func (wp *workerPool) park(w chan task) bool {
	wp.mu.Lock()
	defer wp.mu.Unlock()
	if wp.closed {
		return false
	}
	wp.idle = append(wp.idle, w)
	return true
}

// close stops the idle workers and waits until they have exited. Workers
// still busy exit when their task returns.
func (wp *workerPool) close() {
	wp.mu.Lock()
	wp.closed = true
	idle := wp.idle
	wp.idle = nil
	wp.stopped.Add(len(idle))
	wp.mu.Unlock()
	for _, w := range idle {
		close(w)
	}
	wp.stopped.Wait()
}
