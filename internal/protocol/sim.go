package protocol

import (
	"errors"
	"math/rand"

	"repro/internal/ident"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Sim is a deterministic in-memory execution fabric for resolution engines:
// one FIFO queue per ordered object pair (the algorithm's channel
// assumption), with messages delivered either in global enqueue order or
// from a randomly chosen non-empty pair. It exists so that tests, benchmarks
// and the experiment harness can measure exact message counts without
// scheduler noise; package core drives the same engines over the simulated
// network for full-stack runs.
//
// The queuing, interleaving and fault-injection mechanics live in
// transport.Deterministic — the shared fabric also behind CentralSim and the
// model checker; Sim contributes only the engine wiring.
type Sim struct {
	// Engines maps each object to its engine.
	Engines map[ident.ObjectID]*Engine
	// Log records every engine event; its census is the message count.
	Log *trace.Log
	// Handled records handler starts per object as "A<action>:<exc>".
	Handled map[ident.ObjectID][]string
	// Aborts records AbortNested targets per object.
	Aborts map[ident.ObjectID][]ident.ActionID

	fabric *transport.Deterministic
	sigs   map[ident.ObjectID]map[ident.ActionID]string
}

// ErrNoQuiescence is returned by Drain when the step budget is exhausted.
var ErrNoQuiescence = transport.ErrNoQuiescence

// NewSim creates an empty simulation over a fresh deterministic fabric.
func NewSim() *Sim {
	return &Sim{
		Engines: make(map[ident.ObjectID]*Engine),
		Log:     trace.NewLog(),
		Handled: make(map[ident.ObjectID][]string),
		Aborts:  make(map[ident.ObjectID][]ident.ActionID),
		fabric:  transport.NewDeterministic(transport.Options{}),
		sigs:    make(map[ident.ObjectID]map[ident.ActionID]string),
	}
}

// Fabric exposes the underlying deterministic transport (for sinks, codecs
// and schedule tooling layered on top of a simulation).
func (s *Sim) Fabric() *transport.Deterministic { return s.fabric }

// SetRand randomises delivery interleaving (per-pair FIFO preserved).
func (s *Sim) SetRand(rng *rand.Rand) {
	if rng == nil {
		s.fabric.SetChooser(nil)
		return
	}
	s.fabric.SetChooser(transport.RandChooser(rng))
}

// SetFilter installs a delivery filter used for failure injection: a message
// is silently dropped when the filter returns false. Crashing an object is
// modelled by dropping everything it sends from some point on.
func (s *Sim) SetFilter(f func(from, to ident.ObjectID, m Msg) bool) {
	if f == nil {
		s.fabric.SetFilter(nil)
		return
	}
	s.fabric.SetFilter(func(m transport.Message) bool {
		return f(m.From, m.To, MsgOf(m.Kind, m.From, m.Body))
	})
}

// AddEngine creates the engine for obj and registers it on the fabric.
func (s *Sim) AddEngine(obj ident.ObjectID) *Engine {
	e := NewEngine(obj, Hooks{
		Send: func(to ident.ObjectID, m Msg) {
			_ = s.fabric.Send(transport.Message{From: obj, To: to, Kind: m.Kind, Body: m.Body()})
		},
		AbortNested: func(downTo ident.ActionID) string {
			s.Aborts[obj] = append(s.Aborts[obj], downTo)
			if m := s.sigs[obj]; m != nil {
				return m[downTo]
			}
			return ""
		},
		StartHandler: func(a ident.ActionID, exc string) {
			s.Handled[obj] = append(s.Handled[obj], a.String()+":"+exc)
		},
		Log: func(ev trace.Event) { s.Log.Record(ev) },
	})
	s.Engines[obj] = e
	s.fabric.Register(obj, func(m transport.Message) {
		e.HandleMessage(MsgOf(m.Kind, m.From, m.Body))
	})
	return e
}

// SetAbortSignal makes obj's abortion handlers signal exc when aborting the
// nested chain down to the given action.
func (s *Sim) SetAbortSignal(obj ident.ObjectID, downTo ident.ActionID, exc string) {
	if s.sigs[obj] == nil {
		s.sigs[obj] = make(map[ident.ActionID]string)
	}
	s.sigs[obj][downTo] = exc
}

// EnterAll pushes the same frame on the named engines.
func (s *Sim) EnterAll(f Frame, objs ...ident.ObjectID) error {
	for _, o := range objs {
		e, ok := s.Engines[o]
		if !ok {
			return errors.New("protocol: no engine for " + o.String())
		}
		if err := e.EnterAction(f); err != nil {
			return err
		}
	}
	return nil
}

// Step delivers one pending message; it reports whether one was pending.
func (s *Sim) Step() bool { return s.fabric.Step() }

// Drain delivers messages until quiescence, bounded by maxSteps.
func (s *Sim) Drain(maxSteps int) error { return s.fabric.Drain(maxSteps) }
