// Package protocol implements the paper's distributed exception-resolution
// algorithm (§4.2) as a passive, deterministic state machine per
// participating object. The engine consumes events (local raises, action
// entry/exit, incoming messages) and produces effects through Hooks (messages
// to send, nested-action abortions, handler invocations), which makes every
// protocol decision unit-testable without goroutines; package core drives
// engines over the simulated network.
//
// Message kinds, object states (N/X/S/R) and the lists LE/LO/LP and stack SA
// follow the paper's notation directly.
package protocol

import (
	"fmt"

	"repro/internal/ident"
	"repro/internal/transport"
)

// Message kind names. These appear verbatim in traces and censuses so that
// measured counts line up with the paper's §4.4 analysis.
const (
	// KindException announces an exception raised within an action:
	// Exception(A, O_i, E).
	KindException = "Exception"
	// KindHaveNested announces that the sender is inside an action nested
	// within A and is about to abort it: HaveNested(O_i, A).
	KindHaveNested = "HaveNested"
	// KindNestedCompleted announces that the sender finished aborting its
	// nested chain down to A, carrying any exception signalled by the
	// abortion handlers: NestedCompleted(A, O_i, E).
	KindNestedCompleted = "NestedCompleted"
	// KindAck acknowledges an Exception or NestedCompleted message.
	KindAck = "ACK"
	// KindCommit distributes the resolved exception: Commit(E).
	KindCommit = "Commit"
)

// Msg is a protocol message. Path carries the action's ancestry (outermost
// first, ending with Action itself); receivers use it to clean up messages
// that belong to actions nested within an escalated resolution level.
type Msg struct {
	Kind   string
	Action ident.ActionID
	Path   []ident.ActionID
	From   ident.ObjectID
	Exc    string // exception name; "" is the paper's null
}

// Body is the message's content beyond its envelope: what a fabric carries
// by value next to the kind and sender it already has.
func (m Msg) Body() transport.Body {
	return transport.Body{Action: m.Action, Path: m.Path, Exc: m.Exc}
}

// MsgOf rebuilds the message a fabric delivered: kind and sender from the
// envelope, the rest from the body.
func MsgOf(kind string, from ident.ObjectID, b transport.Body) Msg {
	return Msg{Kind: kind, Action: b.Action, Path: b.Path, From: from, Exc: b.Exc}
}

// String renders the message as in the paper, e.g. "Exception(A1, O2, E2)".
func (m Msg) String() string {
	switch m.Kind {
	case KindHaveNested:
		return fmt.Sprintf("HaveNested(%s, %s)", m.From, m.Action)
	case KindAck:
		return fmt.Sprintf("ACK(%s, %s)", m.From, m.Action)
	case KindCommit:
		return fmt.Sprintf("Commit(%s, %s)", m.Action, m.Exc)
	case KindException, KindNestedCompleted:
		return fmt.Sprintf("%s(%s, %s, %s)", m.Kind, m.Action, m.From, m.excOrNull())
	default:
		// Unknown kinds (wire experiments, tests) render in the generic form.
		return fmt.Sprintf("%s(%s, %s, %s)", m.Kind, m.Action, m.From, m.excOrNull())
	}
}

// excOrNull renders the exception slot, using the paper's "null" for empty.
func (m Msg) excOrNull() string {
	if m.Exc == "" {
		return "null"
	}
	return m.Exc
}

// nestedWithin reports whether the message's action is strictly nested within
// a, judged by the ancestry path the message carries.
func (m Msg) nestedWithin(a ident.ActionID) bool {
	for _, anc := range m.Path {
		if anc == a && m.Action != a {
			return true
		}
	}
	return false
}

// State is an object's protocol state for the current resolution (§4.2).
type State int

// Protocol states.
const (
	// StateNormal (N): no exception known.
	StateNormal State = iota + 1
	// StateExceptional (X): an exception was raised in this object (locally
	// or signalled by its abortion handlers).
	StateExceptional
	// StateSuspended (S): the object learned of exceptions elsewhere.
	StateSuspended
	// StateReady (R): an X-state object that has collected every ACK and
	// every NestedCompleted it is owed.
	StateReady
)

// String renders the state with the paper's single-letter names.
func (s State) String() string {
	switch s {
	case StateNormal:
		return "N"
	case StateExceptional:
		return "X"
	case StateSuspended:
		return "S"
	case StateReady:
		return "R"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Raised is one entry of the LE list: exception Exc raised by Obj in Action.
type Raised struct {
	Action ident.ActionID
	Obj    ident.ObjectID
	Exc    string
}

// String renders the entry as "<A, O, E>".
func (r Raised) String() string {
	return fmt.Sprintf("<%s, %s, %s>", r.Action, r.Obj, r.Exc)
}
