package core

import (
	"sync"
	"time"

	"repro/internal/atomicobj"
	"repro/internal/group"
	"repro/internal/ident"
	"repro/internal/netsim"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// TransportKind selects how participants exchange protocol messages.
type TransportKind int

// Transport kinds.
const (
	// TransportRaw assumes a reliable FIFO network (the algorithm's §4.2
	// baseline assumption). The netsim configuration must not drop messages.
	TransportRaw TransportKind = iota
	// TransportReliable layers retransmission/dedup over a possibly lossy
	// network (the §4.5 group-communication implementation route).
	TransportReliable
	// TransportTCP runs each participant on its own real TCP fabric
	// (loopback listener per object, every protocol message serialised and
	// crossing an OS socket), with the reliable layer on top so delivery
	// stays exactly-once across connection failures. The Network options are
	// ignored; wire encoding is always on — sockets carry bytes, not Go
	// values.
	TransportTCP
)

// OverloadPolicy selects what happens to a submission that would exceed
// Options.MaxInFlight.
type OverloadPolicy int

// Overload policies.
const (
	// OverloadBlock parks the submitting goroutine until a slot frees up
	// (admission-control backpressure, the counterpart of a bounded netsim
	// inbox at the action level).
	OverloadBlock OverloadPolicy = iota
	// OverloadReject fails the submission immediately with ErrOverload.
	OverloadReject
)

// Options configure a Server.
type Options struct {
	// Network configures the simulated network. Zero value = instant,
	// reliable delivery.
	Network netsim.Config
	// Transport selects the messaging layer. TransportReliable is required
	// when the network drops or duplicates messages.
	Transport TransportKind
	// Retransmit is the retransmission period for TransportReliable.
	Retransmit time.Duration
	// WireEncoding, when true, serialises every protocol message to its
	// compact binary wire format before it enters the network and decodes
	// it on arrival, enforcing the disjoint-address-space boundary the
	// paper assumes (§2.1). Off by default for speed.
	WireEncoding bool
	// Membership, when non-nil, enables partition-aware membership
	// monitoring: heartbeat failure detection, majority view installation
	// and expulsion of unreachable participants as the predefined
	// ExcParticipantFailure exception. Requires a netsim-backed transport
	// and an exception tree declaring ExcParticipantFailure.
	Membership *MembershipOptions
	// Clock is the time seam for every timer the server arms (run timeouts,
	// Context.Sleep deadlines, heartbeats, polls, retransmission: all
	// callbacks) and, unless Network.Clock is set, netsim link latency. It is
	// also what the server counts its outstanding work on (docs/VCLOCK.md): a
	// vclock.Virtual moves only when nothing is queued, stepping or running,
	// so partition/churn scenarios cost microseconds of wall clock and reach
	// the same verdict every time. Nil means the real clock, which counts
	// nothing; TransportTCP needs it (bytes in the kernel cannot be counted).
	Clock vclock.Clock
	// MaxInFlight caps the number of top-level actions executing
	// concurrently on this server (0 = unlimited). Submissions beyond the
	// cap follow the Overload policy.
	MaxInFlight int
	// Overload selects blocking or rejecting admission once MaxInFlight is
	// reached. Ignored when MaxInFlight is 0.
	Overload OverloadPolicy
	// Trace, when set, receives every runtime event, membership notes
	// included, and keeps them all: pass trace.NewLog() to anything that
	// checks a complete history (CheckFIFO, CheckHandlersAgree, Dump). Nil
	// gives the server a census-only log that keeps no event: Census,
	// CountSends and TotalSends are exact for the server's whole life, or
	// since the last Reset. Either way each action keeps its own record in its
	// participants, which a run that fails after its members joined returns
	// in its RunError.
	Trace *trace.Log
}

// Server is the long-lived action runtime: it owns the substrates every CA
// action needs — the simulated network, the shared membership directory, the
// per-object dispatchers multiplexing concurrent actions over shared
// transports, the participant pool, the atomic-object store and the message
// census — and hosts any number of concurrent, independent top-level actions.
// Create with NewServer, release with Close.
type Server struct {
	opts  Options
	clk   vclock.Clock
	net   *netsim.Network
	dir   *group.Directory
	store *atomicobj.Store
	log   *trace.Log // Options.Trace, or a census-only log

	// group is the server-persistent membership record, maintained across
	// runs when Options.Membership.Rejoin is set (nil otherwise). Guarded by
	// mu.
	group *groupState

	mu         sync.Mutex
	cond       *sync.Cond // inflight or closed changed
	nextAction ident.ActionID
	inflight   int
	closed     bool

	// The one runtime every run is multiplexed over.
	dispatchers map[ident.ObjectID]*dispatcher
	tcpDir      *group.TCPDirectory // shared socket directory, TransportTCP only

	// participants recycles participants across actions, each with its
	// engine, mailbox, wake channel and hooks (participant.Reset), so a server
	// draining many short actions builds none of them per action.
	participants sync.Pool

	// workers runs every mailbox drain, body, handler and submitted action
	// (worker.go); a participant owns no goroutine.
	workers workerPool
}

// NewServer creates a server.
func NewServer(opts Options) *Server {
	log := opts.Trace
	if log == nil {
		log = trace.NewCensus()
	}
	clk := vclock.Or(opts.Clock)
	if opts.Network.Clock == nil {
		opts.Network.Clock = clk
	}
	net := netsim.New(opts.Network)
	s := &Server{
		opts:        opts,
		clk:         clk,
		store:       atomicobj.NewStore(),
		log:         log,
		net:         net,
		dispatchers: make(map[ident.ObjectID]*dispatcher),
	}
	s.cond = sync.NewCond(&s.mu)
	var dirOpts []group.Option
	if opts.WireEncoding {
		// The wire codec sits at the transport boundary, so every protocol
		// message crosses the fabric as bytes.
		dirOpts = append(dirOpts, group.WithCodec(wire.Codec{}))
	}
	s.dir = group.NewDirectory(net, dirOpts...)
	s.participants.New = func() any { return newParticipant(s) }
	return s
}

// Store returns the external atomic-object store.
func (s *Server) Store() *atomicobj.Store { return s.store }

// Trace returns the server's log: Options.Trace, which keeps every event, or
// else a census-only log that counts sends and keeps no event.
func (s *Server) Trace() *trace.Log { return s.log }

// NetworkStats returns a snapshot of network counters.
func (s *Server) NetworkStats() netsim.Stats { return s.net.Stats() }

// Close shuts the server down: new submissions are rejected with ErrClosed,
// in-flight runs drain to completion, the idle workers exit (a worker still
// running a handler whose run ended without it exits when the handler
// returns), then the dispatchers, shared directories and the network are
// torn down. Safe to call concurrently with running actions and idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cond.Broadcast() // wake blocked admissions so they see closed
	for s.inflight > 0 {
		s.cond.Wait()
	}
	disps := make([]*dispatcher, 0, len(s.dispatchers))
	for _, d := range s.dispatchers {
		disps = append(disps, d)
	}
	s.dispatchers = nil
	tcpDir := s.tcpDir
	s.tcpDir = nil
	s.mu.Unlock()
	s.workers.close()
	for _, d := range disps {
		d.close()
	}
	if tcpDir != nil {
		tcpDir.Close()
	}
	s.net.Close()
}

// admit reserves one in-flight action slot, applying the overload policy.
func (s *Server) admit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return ErrClosed
		}
		if s.opts.MaxInFlight <= 0 || s.inflight < s.opts.MaxInFlight {
			s.inflight++
			return nil
		}
		if s.opts.Overload == OverloadReject {
			return ErrOverload
		}
		s.cond.Wait()
	}
}

// release returns an in-flight slot, waking blocked admissions and a
// draining Close.
func (s *Server) release() {
	s.mu.Lock()
	s.inflight--
	s.cond.Broadcast()
	s.mu.Unlock()
}

// InFlight returns the number of top-level actions currently executing.
func (s *Server) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// allocAction returns a fresh action identifier.
func (s *Server) allocAction() ident.ActionID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextAction++
	return s.nextAction
}

// binder returns the directory every object binds on: the server's
// long-lived netsim directory, or (for TransportTCP) one lazily created socket
// directory whose member fabrics live until Close.
func (s *Server) binder() group.Binder {
	if s.opts.Transport != TransportTCP {
		return s.dir
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tcpDir == nil {
		s.tcpDir = group.NewTCPDirectory(group.WithTCPCodec(wire.Codec{}))
	}
	return s.tcpDir
}

// newTransport binds obj's long-lived transport of the configured kind;
// deliver is called with each delivery on the goroutine delivering it.
func (s *Server) newTransport(obj ident.ObjectID, deliver func(group.Delivery)) (group.Transport, error) {
	switch s.opts.Transport {
	case TransportRaw:
		return group.BindRaw(s.binder(), obj, deliver)
	case TransportReliable, TransportTCP:
		// Over TCP the base fabric loses in-flight frames across reconnects,
		// so the reliable layer is not optional there.
		return group.BindR3(s.binder(), obj, s.opts.Retransmit, s.clk, deliver)
	default:
		panic("core: unknown transport kind")
	}
}
