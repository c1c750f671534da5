package transport

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	"repro/internal/wire/frame"
)

// FaultProxyOptions configure a FaultProxy.
type FaultProxyOptions struct {
	// Listen is the proxy's own listening address ("127.0.0.1:0" when empty).
	Listen string
	// Policy decides each forwarded frame's fate, keyed by the same
	// per-ordered-pair sequence numbers as on every other backend, so a
	// seeded schedule applied at the wire reproduces the in-process one.
	// Nil forwards everything.
	Policy FaultPolicy
	// SeverEvery, when > 0, closes the upstream and downstream connections
	// after every n-th forwarded frame (counted across all connections),
	// forcing the sending fabric through its reconnect path mid-stream.
	SeverEvery int
}

// FaultProxy is a frame-aware TCP interposer: it accepts connections in
// place of a real fabric, deframes the stream, applies a FaultPolicy to each
// frame (drop, duplicate, deliver) and re-frames survivors onto its own
// connection to the target fabric. Unlike the FaultPolicy hook on TCP —
// which runs inside the sender before the network — the proxy exercises loss
// at the wire itself: frames vanish mid-flight, connections get severed, and
// the fabrics on either side observe only what a faulty network would show
// them. That makes it the right instrument for proving the reliable layer
// (group.R3Transport) masks real network faults, not just simulated ones.
type FaultProxy struct {
	ln     net.Listener
	target string
	opts   FaultProxyOptions

	seq seqTable

	mu        sync.Mutex
	forwarded int
	conns     map[net.Conn]struct{}
	closed    bool

	wg sync.WaitGroup
}

// NewFaultProxy starts a proxy in front of the fabric listening on target.
// Point the sending fabric's SetPeer at proxy.Addr() instead of the target.
func NewFaultProxy(target string, opts FaultProxyOptions) (*FaultProxy, error) {
	if opts.Listen == "" {
		opts.Listen = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: fault proxy listen: %w", err)
	}
	p := &FaultProxy{
		ln:     ln,
		target: target,
		opts:   opts,
		conns:  make(map[net.Conn]struct{}),
	}
	p.seq.init()
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listening address.
func (p *FaultProxy) Addr() string { return p.ln.Addr().String() }

// Close stops the proxy and severs all live connections. It blocks until
// every proxy goroutine has exited.
func (p *FaultProxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	_ = p.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	p.wg.Wait()
	return nil
}

func (p *FaultProxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *FaultProxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *FaultProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		if !p.track(conn) {
			_ = conn.Close()
			return
		}
		p.wg.Add(1)
		go p.relay(conn)
	}
}

// relay deframes one inbound connection and forwards surviving frames to the
// target over a dedicated upstream connection. Both sides close together:
// when either breaks (or a scheduled sever fires), the sender sees its
// connection die and redials through the proxy again.
func (p *FaultProxy) relay(down net.Conn) {
	defer p.wg.Done()
	defer func() {
		_ = down.Close()
		p.untrack(down)
	}()
	up, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	if !p.track(up) {
		_ = up.Close()
		return
	}
	defer func() {
		_ = up.Close()
		p.untrack(up)
	}()

	br := bufio.NewReader(down)
	for {
		f, err := frame.Read(br)
		if err != nil {
			return
		}
		copies := 1
		if p.opts.Policy != nil {
			m := Message{From: f.From, To: f.To, Kind: f.Kind, Action: f.Action, Payload: f.Payload}
			copies = p.seq.verdictCopies(p.opts.Policy, m)
		}
		for i := 0; i < copies; i++ {
			if err := frame.Write(up, f); err != nil {
				return
			}
		}
		if copies > 0 && p.severDue() {
			return
		}
	}
}

// severDue counts one forwarded frame and reports whether the connection
// pair should be cut now.
func (p *FaultProxy) severDue() bool {
	if p.opts.SeverEvery <= 0 {
		return false
	}
	p.mu.Lock()
	p.forwarded++
	due := p.forwarded%p.opts.SeverEvery == 0
	p.mu.Unlock()
	return due
}
