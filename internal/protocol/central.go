package protocol

import (
	"errors"
	"fmt"

	"repro/internal/exception"
	"repro/internal/ident"
	"repro/internal/trace"
	"repro/internal/transport"
)

// This file implements the centralised resolution variant the paper's §4.5
// contemplates ("such implementation would allow the dynamic change of
// different resolution algorithms (e.g. centralised or decentralised)"):
// a designated manager object collects concurrently raised exceptions,
// resolves them over the action's tree and distributes the result.
//
// The exchange is:
//
//	raiser  -> manager : CException(E)          (P messages)
//	manager -> all     : CProbe                 (N-1 messages)
//	object  -> manager : CStatus(E or null)     (N-1 messages)
//	manager -> all     : CCommit(E*)            (N-1 messages)
//
// i.e. PredictCentralMessages = P + 3(N-1): linear in N even when every
// object raises — cheaper than the decentralised O(N²) worst case — but the
// manager is a single point of failure and every resolution pays two extra
// network hops. CentralSim exists to quantify that trade (see the
// BenchmarkCentralVsDecentralised ablation); the decentralised Engine is the
// paper's actual contribution and the one package core uses.

// Centralised message kinds.
const (
	KindCException = "CException"
	KindCProbe     = "CProbe"
	KindCStatus    = "CStatus"
	KindCCommit    = "CCommit"
)

// PredictCentralMessages is the closed-form message count of the
// centralised variant for n participants of which p raised (raises by the
// manager itself cost no message; the count assumes raisers are
// non-manager, its worst case).
func PredictCentralMessages(n, p int) int {
	return p + 3*(n-1)
}

// CentralSim is a deterministic runner for the centralised variant over one
// flat action. It mirrors Sim's counting interface, and runs over the same
// transport.Deterministic fabric.
type CentralSim struct {
	// Log records sends; its census is the message count.
	Log *trace.Log
	// Handled records handler starts per object.
	Handled map[ident.ObjectID][]string

	tree    *exception.Tree
	manager ident.ObjectID
	members []ident.ObjectID

	objs   map[ident.ObjectID]*centralObject
	fabric *transport.Deterministic

	// Manager state.
	probing   bool
	collected []string
	statusGot map[ident.ObjectID]bool
	committed bool
}

type centralObject struct {
	id        ident.ObjectID
	suspended bool
	raised    string // pending exception not yet reported via CStatus
	reported  bool   // sent CException already
}

type centralMsg struct {
	kind     string
	from, to ident.ObjectID
	exc      string
}

// NewCentralSim creates a centralised-resolution run: members[0] acts as the
// manager.
func NewCentralSim(tree *exception.Tree, members []ident.ObjectID) (*CentralSim, error) {
	if len(members) == 0 {
		return nil, errors.New("protocol: central sim needs members")
	}
	cs := &CentralSim{
		Log:       trace.NewLog(),
		Handled:   make(map[ident.ObjectID][]string),
		tree:      tree,
		manager:   members[0],
		members:   append([]ident.ObjectID{}, members...),
		objs:      make(map[ident.ObjectID]*centralObject, len(members)),
		fabric:    transport.NewDeterministic(transport.Options{}),
		statusGot: make(map[ident.ObjectID]bool),
	}
	for _, m := range members {
		cs.objs[m] = &centralObject{id: m}
		cs.fabric.Register(m, func(tm transport.Message) {
			cs.deliver(tm.Payload.(centralMsg))
		})
	}
	return cs, nil
}

// Manager returns the designated resolver.
func (cs *CentralSim) Manager() ident.ObjectID { return cs.manager }

// Raise raises an exception at obj. Raises after suspension are dropped,
// like in the decentralised engine.
func (cs *CentralSim) Raise(obj ident.ObjectID, exc string) (bool, error) {
	o, ok := cs.objs[obj]
	if !ok {
		return false, fmt.Errorf("protocol: unknown object %s", obj)
	}
	if o.suspended || cs.committed {
		return false, nil
	}
	cs.Log.Record(trace.Event{Kind: trace.EvRaise, Object: obj, Label: exc})
	o.raised = exc
	if obj == cs.manager {
		// The manager raises locally: no message, it starts probing on the
		// next Drain step.
		cs.managerCollect(exc)
		cs.startProbe()
		return true, nil
	}
	o.reported = true
	cs.send(centralMsg{kind: KindCException, from: obj, to: cs.manager, exc: exc})
	return true, nil
}

// Step delivers one queued message; it reports whether one was pending.
func (cs *CentralSim) Step() bool { return cs.fabric.Step() }

// Drain delivers queued messages to quiescence.
func (cs *CentralSim) Drain(maxSteps int) error { return cs.fabric.Drain(maxSteps) }

func (cs *CentralSim) send(m centralMsg) {
	cs.Log.Record(trace.Event{Kind: trace.EvSend, Object: m.from, Peer: m.to,
		Label: m.kind, Detail: m.exc})
	_ = cs.fabric.Send(transport.Message{From: m.from, To: m.to, Kind: m.kind, Payload: m})
}

func (cs *CentralSim) deliver(m centralMsg) {
	cs.Log.Record(trace.Event{Kind: trace.EvRecv, Object: m.to, Peer: m.from,
		Label: m.kind, Detail: m.exc})
	switch m.kind {
	case KindCException:
		cs.managerCollect(m.exc)
		cs.statusGot[m.from] = false // a fresher CStatus still expected
		cs.startProbe()
	case KindCProbe:
		o := cs.objs[m.to]
		o.suspended = true
		exc := ""
		if o.raised != "" && !o.reported {
			exc = o.raised
			o.reported = true
		}
		cs.send(centralMsg{kind: KindCStatus, from: m.to, to: cs.manager, exc: exc})
	case KindCStatus:
		if m.exc != "" {
			cs.managerCollect(m.exc)
		}
		cs.statusGot[m.from] = true
		cs.maybeCommit()
	case KindCCommit:
		cs.Handled[m.to] = append(cs.Handled[m.to], m.exc)
	}
}

func (cs *CentralSim) managerCollect(exc string) {
	cs.collected = append(cs.collected, exc)
}

func (cs *CentralSim) startProbe() {
	if cs.probing || cs.committed {
		return
	}
	cs.probing = true
	mgr := cs.objs[cs.manager]
	mgr.suspended = true
	for _, m := range cs.members {
		if m == cs.manager {
			continue
		}
		cs.send(centralMsg{kind: KindCProbe, from: cs.manager, to: m})
	}
}

func (cs *CentralSim) maybeCommit() {
	if cs.committed {
		return
	}
	for _, m := range cs.members {
		if m == cs.manager {
			continue
		}
		if !cs.statusGot[m] {
			return
		}
	}
	resolved, err := cs.tree.Resolve(cs.collected)
	if err != nil {
		resolved = cs.tree.Root()
	}
	cs.committed = true
	cs.Log.Record(trace.Event{Kind: trace.EvCommitChosen, Object: cs.manager, Label: resolved})
	for _, m := range cs.members {
		if m == cs.manager {
			continue
		}
		cs.send(centralMsg{kind: KindCCommit, from: cs.manager, to: m, exc: resolved})
	}
	cs.Handled[cs.manager] = append(cs.Handled[cs.manager], resolved)
}
