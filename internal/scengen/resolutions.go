package scengen

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/exception"
	"repro/internal/ident"
	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/transport/conformancetest"
)

// The protocol tier runs a Program on bare §4 engines, with no core runtime
// around them. Two runners execute it — every family solo on the
// deterministic reference (ReferenceResolutions), or all families multiplexed
// over one fabric under test (FabricResolutions) — and the committed
// resolution maps are diffed. Object m is ident.ObjectID(m); action a of
// family f is actionID(f, a). Core-only features (delays, policies, atomic
// ops, partitions) do not exist at this level. Everything here is free of
// *testing.T so the same oracle runs from tests, cmd/scenfuzz and CI drivers.
//
// Soundness of the strict comparison: each raiser's RaiseLocal is performed
// before that engine observes any delivery (all raiser engines are locked
// across the raises, parking their pump goroutines), so every run starts from
// the same protocol state the reference run starts from — the raises
// accepted, nothing delivered. Program.Validate constrains the raise sites to
// an ancestor-free antichain so no two resolutions can race to abort one
// another. From that state each action's resolution is confluent in its
// accepted raise set: exceptions accumulate in the chooser's LE regardless of
// arrival order, and per-pair FIFO (a conformance invariant) rules out the
// stale-message reorderings that could change it.

// ResolutionKey addresses one committed resolution: family index, object,
// action.
type ResolutionKey struct {
	Family int
	Obj    ident.ObjectID
	Action ident.ActionID
}

func (k ResolutionKey) String() string {
	return fmt.Sprintf("F%d/%s/%s", k.Family, k.Obj, k.Action)
}

// Resolutions maps every committed (family, object, action) to the
// exception the engine committed there.
type Resolutions map[ResolutionKey]string

// Diff renders the differences between two resolution maps ("" when equal).
func (r Resolutions) Diff(other Resolutions) string {
	keys := make(map[ResolutionKey]bool, len(r)+len(other))
	for k := range r {
		keys[k] = true
	}
	for k := range other {
		keys[k] = true
	}
	ordered := make([]ResolutionKey, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		if a.Family != b.Family {
			return a.Family < b.Family
		}
		if a.Obj != b.Obj {
			return a.Obj < b.Obj
		}
		return a.Action < b.Action
	})
	out := ""
	for _, k := range ordered {
		a, aok := r[k]
		b, bok := other[k]
		switch {
		case !aok:
			out += fmt.Sprintf("%s: reference committed nothing, subject committed %q\n", k, b)
		case !bok:
			out += fmt.Sprintf("%s: reference committed %q, subject committed nothing\n", k, a)
		case a != b:
			out += fmt.Sprintf("%s: reference committed %q, subject committed %q\n", k, a, b)
		}
	}
	return out
}

// frame is the protocol frame of action ai of family fi.
func (p *Program) frame(tree *exception.Tree, fi, ai int) protocol.Frame {
	fam := &p.Families[fi]
	chain := chainTo(fam, ai)
	path := make([]ident.ActionID, len(chain))
	for i, a := range chain {
		path[i] = actionID(fi, a)
	}
	return protocol.Frame{Action: actionID(fi, ai), Path: path, Members: objectIDs(fam.Actions[ai].Members), Tree: tree}
}

// ReferenceResolutions runs every family solo on the deterministic fabric
// (protocol.Sim) and returns the committed-resolution map — the value every
// backend must reproduce — and the number of messages the runs sent. The run
// deliberately forces the belated-entry replay path: raises drain to
// quiescence first, then the belated members enter and the parked messages
// replay.
func ReferenceResolutions(p *Program) (Resolutions, int, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	tree, _ := p.Tree() // p is valid, and Validate built this tree
	const budget = 1 << 20
	res := make(Resolutions)
	sent := 0
	for fi := range p.Families {
		fam := &p.Families[fi]
		sim := protocol.NewSim()
		for _, obj := range fam.Actions[0].Members {
			sim.AddEngine(ident.ObjectID(obj))
		}
		for ai, a := range fam.Actions {
			frame := p.frame(tree, fi, ai)
			for _, obj := range a.Members {
				if slices.Contains(fam.Belated, Belated{Obj: obj, Action: ai}) {
					continue
				}
				if err := sim.Engines[ident.ObjectID(obj)].EnterAction(frame); err != nil {
					return nil, 0, fmt.Errorf("family %d action %s enter O%d: %w", fi, frame.Action, obj, err)
				}
			}
		}
		for _, r := range fam.Raises {
			ok, err := sim.Engines[ident.ObjectID(r.Obj)].RaiseLocal(r.Exc)
			if err != nil {
				return nil, 0, fmt.Errorf("family %d raise O%d: %w", fi, r.Obj, err)
			}
			if !ok {
				return nil, 0, fmt.Errorf("family %d raise O%d: rejected before any delivery", fi, r.Obj)
			}
		}
		if err := sim.Drain(budget); err != nil {
			return nil, 0, fmt.Errorf("family %d drain: %w", fi, err)
		}
		for _, b := range fam.Belated {
			frame := p.frame(tree, fi, b.Action)
			if err := sim.Engines[ident.ObjectID(b.Obj)].EnterAction(frame); err != nil {
				return nil, 0, fmt.Errorf("family %d belated enter O%d/%s: %w", fi, b.Obj, frame.Action, err)
			}
		}
		if err := sim.Drain(budget); err != nil {
			return nil, 0, fmt.Errorf("family %d final drain: %w", fi, err)
		}
		for ai, a := range fam.Actions {
			for _, obj := range a.Members {
				key := ResolutionKey{Family: fi, Obj: ident.ObjectID(obj), Action: actionID(fi, ai)}
				if exc, ok := sim.Engines[key.Obj].CommittedAt(key.Action); ok {
					res[key] = exc
				}
			}
		}
		sent += sim.Log.TotalSends()
	}
	return res, sent, nil
}

// lockedEngine serialises one engine: concurrent backends run handlers on
// per-endpoint goroutines, while the engine itself is single-goroutine by
// contract.
type lockedEngine struct {
	mu sync.Mutex
	e  *protocol.Engine
}

// FabricResolutions runs all families of the program multiplexed over one
// fabric under test: one engine per (family, object), every object
// registered once with deliveries demultiplexed by the Message.Action family
// tag, all raises performed under the cross-engine raise barrier, belated
// entries performed afterwards. want is the reference's committed count —
// the settle target. The returned error reports execution trouble (send
// failures, unroutable deliveries, settle timeout), not divergence; diff the
// returned map against the reference for that.
func FabricResolutions(fab conformancetest.Fabric, p *Program, want int) (Resolutions, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	tree, _ := p.Tree() // p is valid, and Validate built this tree
	var execErr error
	var execErrOnce sync.Once

	// Engines per (family, object); demux tables per object.
	engines := make(map[ResolutionKey]*lockedEngine) // Action field unused (0)
	engineOf := func(fi, obj int) *lockedEngine {
		return engines[ResolutionKey{Family: fi, Obj: ident.ObjectID(obj)}]
	}
	byObj := make(map[ident.ObjectID]map[ident.ActionID]*lockedEngine)
	for fi := range p.Families {
		root := actionID(fi, 0)
		for _, m := range p.Families[fi].Actions[0].Members {
			obj, fi := ident.ObjectID(m), fi
			le := &lockedEngine{}
			le.e = protocol.NewEngine(obj, protocol.Hooks{
				Send: func(to ident.ObjectID, m protocol.Msg) {
					if err := fab.Send(transport.Message{
						From: obj, To: to, Kind: m.Kind, Action: root, Body: m.Body(),
					}); err != nil {
						execErrOnce.Do(func() {
							execErr = fmt.Errorf("family %d send %s -> %s: %w", fi, obj, to, err)
						})
					}
				},
				AbortNested: func(ident.ActionID) string { return "" },
			})
			engines[ResolutionKey{Family: fi, Obj: obj}] = le
			if byObj[obj] == nil {
				byObj[obj] = make(map[ident.ActionID]*lockedEngine)
			}
			byObj[obj][root] = le
		}
	}
	for obj, byAction := range byObj {
		obj, byAction := obj, byAction
		fab.Register(obj, func(m transport.Message) {
			le, ok := byAction[m.Action]
			if !ok {
				execErrOnce.Do(func() {
					execErr = fmt.Errorf("object %s: delivery carries unroutable action %d (kind %s)", obj, m.Action, m.Kind)
				})
				return
			}
			le.mu.Lock()
			le.e.HandleMessage(protocol.MsgOf(m.Kind, m.From, m.Body))
			le.mu.Unlock()
		})
	}

	// Pre-barrier entries.
	for fi := range p.Families {
		fam := &p.Families[fi]
		for ai, a := range fam.Actions {
			frame := p.frame(tree, fi, ai)
			for _, obj := range a.Members {
				if slices.Contains(fam.Belated, Belated{Obj: obj, Action: ai}) {
					continue
				}
				le := engineOf(fi, obj)
				le.mu.Lock()
				err := le.e.EnterAction(frame)
				le.mu.Unlock()
				if err != nil {
					return nil, fmt.Errorf("family %d action %s enter O%d: %w", fi, frame.Action, obj, err)
				}
			}
		}
	}

	// The raise barrier: every raiser engine across every family is locked
	// while the raises land, so each engine accepts its own raise before its
	// pump can deliver a peer's — the state the reference started from.
	// Releasing a lock early would let an Exception arrive first and suppress
	// that object's raise: a different (valid) execution, but not the one the
	// reference computed. Failures are checked only after all locks drop, so
	// an error return never strands a parked pump goroutine and wedges the
	// caller's Close.
	type flatRaise struct {
		family int
		r      Raise
	}
	var raises []flatRaise
	for fi := range p.Families {
		for _, r := range p.Families[fi].Raises {
			raises = append(raises, flatRaise{family: fi, r: r})
		}
	}
	raiseErrs := make([]error, len(raises))
	for _, fr := range raises {
		//protolint:allow lockorder the barrier locks same-class instances in the fixed (family, raise) program order, so every holder agrees on the global order
		engineOf(fr.family, fr.r.Obj).mu.Lock()
	}
	for i, fr := range raises {
		if ok, err := engineOf(fr.family, fr.r.Obj).e.RaiseLocal(fr.r.Exc); err != nil {
			raiseErrs[i] = err
		} else if !ok {
			raiseErrs[i] = errors.New("raise rejected")
		}
	}
	for i := len(raises) - 1; i >= 0; i-- {
		fr := raises[i]
		engineOf(fr.family, fr.r.Obj).mu.Unlock()
	}
	for i, err := range raiseErrs {
		if err != nil {
			return nil, fmt.Errorf("family %d raise on O%d: %w", raises[i].family, raises[i].r.Obj, err)
		}
	}

	// Belated entries, racing the in-flight resolutions on purpose: parked
	// Exceptions must replay on entry regardless of arrival order.
	for fi := range p.Families {
		for _, b := range p.Families[fi].Belated {
			frame := p.frame(tree, fi, b.Action)
			le := engineOf(fi, b.Obj)
			//protolint:allow lockorder the raise barrier above released every engine lock before this loop starts; one engine is locked at a time here
			le.mu.Lock()
			err := le.e.EnterAction(frame)
			le.mu.Unlock()
			if err != nil {
				return nil, fmt.Errorf("family %d belated enter O%d/%s: %w", fi, b.Obj, frame.Action, err)
			}
		}
	}

	// collect reads every committed resolution; settle polls its size.
	collect := func() Resolutions {
		got := make(Resolutions)
		for fi := range p.Families {
			for ai, a := range p.Families[fi].Actions {
				for _, obj := range a.Members {
					le := engineOf(fi, obj)
					key := ResolutionKey{Family: fi, Obj: ident.ObjectID(obj), Action: actionID(fi, ai)}
					le.mu.Lock()
					if exc, ok := le.e.CommittedAt(key.Action); ok {
						got[key] = exc
					}
					le.mu.Unlock()
				}
			}
		}
		return got
	}
	if err := fab.Settle(func() int { return len(collect()) }, want); err != nil {
		return nil, fmt.Errorf("settle: %w", err)
	}
	if execErr != nil {
		return nil, execErr
	}
	return collect(), nil
}
