package conformancetest

import (
	"net"
	"sync"
	"sync/atomic"
)

// SeverRelay models the one fault real TCP adds to the fabric contract: a
// connection that dies mid-stream. It accepts connections in place of a TCP
// fabric, forwards what arrives to the target (a fabric's connections carry
// frames one way), and cuts a connection after every n-th chunk it forwards,
// counted across all of them, so the sender loses what was in flight and
// redials. Drops and duplicates are not its business: they are the sending
// fabric's FaultPolicy. Point a sender's SetPeer (or a TCPDirectory dial
// rewrite) at Addr.
type SeverRelay struct {
	ln     net.Listener
	every  int64
	chunks atomic.Int64

	mu    sync.Mutex
	conns []net.Conn // every accepted connection, for Close; nil once closed
	wg    sync.WaitGroup
}

// NewSeverRelay starts a relay in front of the listener at target that cuts
// a connection every n > 0 chunks.
func NewSeverRelay(target string, n int) (*SeverRelay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &SeverRelay{ln: ln, every: int64(n), conns: []net.Conn{}}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			down, err := ln.Accept()
			if err != nil {
				return // Close
			}
			r.mu.Lock()
			if r.conns == nil {
				_ = down.Close()
			} else {
				r.conns = append(r.conns, down)
				r.wg.Add(1)
				go r.forward(down, target)
			}
			r.mu.Unlock()
		}
	}()
	return r, nil
}

// forward copies down to a fresh connection to target a chunk at a time,
// until either end fails or a cut falls due, and then closes both.
func (r *SeverRelay) forward(down net.Conn, target string) {
	defer r.wg.Done()
	defer down.Close()
	up, err := net.Dial("tcp", target)
	if err != nil {
		return
	}
	defer up.Close()
	buf := make([]byte, 32<<10)
	for {
		n, err := down.Read(buf)
		if err != nil {
			return
		}
		if _, err := up.Write(buf[:n]); err != nil || r.chunks.Add(1)%r.every == 0 {
			return
		}
	}
}

// Addr returns the relay's listening address.
func (r *SeverRelay) Addr() string { return r.ln.Addr().String() }

// Severed returns how many connections the relay has cut on schedule.
func (r *SeverRelay) Severed() int { return int(r.chunks.Load() / r.every) }

// Close stops the relay, closes every connection and returns once every relay
// goroutine has exited.
func (r *SeverRelay) Close() {
	_ = r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		_ = c.Close()
	}
	r.conns = nil
	r.mu.Unlock()
	r.wg.Wait()
}
