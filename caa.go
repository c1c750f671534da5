// Package caa is the public API of this reproduction of Romanovsky, Xu and
// Randell, "Exception Handling and Resolution in Distributed Object-Oriented
// Systems" (ICDCS 1996): Coordinated Atomic (CA) actions with distributed
// resolution of concurrently raised exceptions in O(N²) messages.
//
// A minimal use looks like:
//
//	tree := caa.NewTree("failure").Add("disk_full", "failure").MustBuild()
//	srv := caa.NewServer(caa.Options{})
//	defer srv.Close()
//	out, err := srv.Run(caa.Definition{
//		Spec: caa.ActionSpec{
//			Name: "job", Tree: tree, Members: []caa.ObjectID{1, 2},
//			Handlers: map[caa.ObjectID]caa.HandlerSet{
//				1: {Default: recoverJob}, 2: {Default: recoverJob},
//			},
//		},
//		Bodies: map[caa.ObjectID]caa.Body{1: work1, 2: work2},
//	})
//
// Participating objects run concurrently on simulated network nodes; when
// any of them raises a declared exception (Context.Raise), the resolution
// protocol finds the least exception in the action's resolution tree that
// covers everything raised concurrently and starts that exception's handler
// in every participant. Nested actions (Context.Enclose) are aborted through
// abortion handlers when a containing action must recover, and external
// atomic objects (Context.Read/Write/Update) are kept consistent by the
// per-action transactions.
//
// The implementation lives in internal packages: internal/protocol is the
// paper's §4.2 algorithm, internal/core the CA-action runtime,
// internal/netsim and internal/group the distributed substrate, and
// internal/crbaseline the 1986 Campbell–Randell baseline used by the
// benchmarks.
package caa

import (
	"repro/internal/atomicobj"
	"repro/internal/core"
	"repro/internal/exception"
	"repro/internal/ident"
	"repro/internal/netsim"
	"repro/internal/protocol"
)

// Identifier types.
type (
	// ObjectID identifies a participating object; the total order over
	// ObjectIDs selects the resolution chooser.
	ObjectID = ident.ObjectID
	// ActionID identifies a CA-action instance.
	ActionID = ident.ActionID
)

// Exception model.
type (
	// Exception is a raised exception instance.
	Exception = exception.Exception
	// Tree is a resolution tree: the partial order over an action's
	// declared exceptions.
	Tree = exception.Tree
	// TreeBuilder accumulates resolution-tree nodes.
	TreeBuilder = exception.Builder
)

// NewTree starts a resolution tree whose universal (root) exception has the
// given name.
func NewTree(root string) *TreeBuilder { return exception.NewBuilder(root) }

// AircraftTree returns the paper's §3.2 example tree.
func AircraftTree() *Tree { return exception.AircraftTree() }

// ChainTree returns the §3.3 directed-chain tree e1 -> ... -> en.
func ChainTree(n int) *Tree { return exception.ChainTree(n) }

// CA-action model.
type (
	// Server owns the simulated network, membership, atomic-object store
	// and trace log, and runs any number of concurrent actions.
	Server = core.Server
	// Options configures a Server.
	Options = core.Options
	// Definition is a top-level CA action: spec plus member bodies.
	Definition = core.Definition
	// ActionSpec declares an action: tree, members, handlers.
	ActionSpec = core.ActionSpec
	// HandlerSet is one member's exception handlers for an action.
	HandlerSet = core.HandlerSet
	// Handler recovers an action after resolution.
	Handler = core.Handler
	// AbortionHandler runs when a nested action is aborted.
	AbortionHandler = core.AbortionHandler
	// Body is a participating object's normal activity.
	Body = core.Body
	// Context is the body-side runtime interface.
	Context = core.Context
	// RecoveryContext is the handler-side runtime interface.
	RecoveryContext = core.RecoveryContext
	// TxnView accesses external atomic objects transactionally.
	TxnView = core.TxnView
	// NestedResult reports how a nested action finished.
	NestedResult = core.NestedResult
	// Outcome aggregates a top-level run.
	Outcome = core.Outcome
	// ParticipantResult is one object's view of the outcome.
	ParticipantResult = core.ParticipantResult
	// Attempt is one backward-recovery attempt's bodies.
	Attempt = core.Attempt
	// RecoveryOutcome reports a RunWithRecovery execution.
	RecoveryOutcome = core.RecoveryOutcome
	// NestedPolicy selects Figure 1's nested-action strategy.
	NestedPolicy = core.NestedPolicy
	// TransportKind selects the messaging layer.
	TransportKind = core.TransportKind
)

// Atomic-object operations (Context.Apply / TxnView.Apply).
type (
	// Op is a typed atomic-object operation carrying its commutativity
	// class. Ops in the same commuting class on the same object commit
	// without locking or wait-die conflicts.
	Op = atomicobj.Op
	// OpClass is an operation's commutativity class.
	OpClass = atomicobj.Class
)

// Commutativity classes.
const (
	// OpReadWrite operations coordinate through strict 2PL (the default).
	OpReadWrite = atomicobj.ReadWrite
	// OpIncrement operations (AddOp) commute with each other.
	OpIncrement = atomicobj.Increment
	// OpSetInsert operations (InsertOp) commute with each other.
	OpSetInsert = atomicobj.SetInsert
)

// AddOp returns an Increment-class operation adding delta to an integer
// object (Context.Add is shorthand for Apply with an AddOp).
func AddOp(delta int) Op { return atomicobj.AddOp(delta) }

// InsertOp returns a SetInsert-class operation inserting elem into a
// set-valued (map[string]bool) object.
func InsertOp(elem string) Op { return atomicobj.InsertOp(elem) }

// UpdateOp returns a ReadWrite-class operation applying f under the
// object's lock, equivalent to Context.Update.
func UpdateOp(f func(any) (any, error)) Op { return atomicobj.UpdateOp(f) }

// Nested-action policies (Figure 1 of the paper).
const (
	// AbortNestedActions aborts nested actions via abortion handlers when a
	// containing action must recover (Figure 1(b), the paper's choice).
	AbortNestedActions = core.AbortNestedActions
	// WaitForNestedActions waits for nested actions to complete first
	// (Figure 1(a)); may wait forever on belated participants.
	WaitForNestedActions = core.WaitForNestedActions
)

// Transport kinds.
const (
	// TransportRaw assumes the network is reliable and FIFO.
	TransportRaw = core.TransportRaw
	// TransportReliable adds retransmission and duplicate suppression for
	// lossy network configurations.
	TransportReliable = core.TransportReliable
)

// NewServer creates a Server; release it with Close.
func NewServer(opts Options) *Server { return core.NewServer(opts) }

// Network simulation configuration.
type (
	// NetworkConfig configures the simulated network (latency, loss).
	NetworkConfig = netsim.Config
	// LatencyModel computes per-message delivery delay.
	LatencyModel = netsim.LatencyModel
)

// Latency models for NetworkConfig.
var (
	// NoLatency delivers instantly.
	NoLatency = netsim.NoLatency
	// FixedLatency delivers after a constant delay.
	FixedLatency = netsim.FixedLatency
	// JitterLatency delivers after base plus uniform jitter.
	JitterLatency = netsim.JitterLatency
)

// PredictMessages returns the paper's §4.4 closed-form message count
// (N-1)(2P+3Q+1) for the resolution protocol.
func PredictMessages(n, p, q int) int { return protocol.PredictMessages(n, p, q) }
