package conformancetest

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/exception"
	"repro/internal/ident"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// A Program is the one protocol-level case description: any number of action
// families (each a tree of nested actions over its member objects) with a
// concurrent raise schedule and optional belated entries. Two runners execute
// it — solo per family on the deterministic reference (ReferenceResolutions),
// or all families multiplexed over one fabric under test (FabricResolutions)
// — and the committed-resolution maps are diffed. The §4.4 grid suites build
// their cases with GridProgram; the scenario fuzzer (internal/scengen) feeds
// seeded random programs through the same pair. Everything here is free of
// *testing.T so the same oracle also runs from cmd/scenfuzz and nightly CI
// drivers.
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

// ProgramAction is one CA action of a family: a node of the family's action
// tree. Members must be a subset of the parent's members; sibling actions
// never share members (each object's entered actions form a chain).
type ProgramAction struct {
	// ID is the action identifier, unique across the whole program.
	ID ident.ActionID
	// Parent indexes the containing action within the family (-1 for the
	// family root). Parents always precede children in the slice.
	Parent int
	// Members are the declared participants.
	Members []ident.ObjectID
}

// ProgramRaise schedules one concurrent raise: obj raises exc at its
// innermost entered action of the family (its leaf of the action tree).
type ProgramRaise struct {
	Obj ident.ObjectID
	Exc string
}

// ProgramEntry is a belated entry: obj enters the indexed action only after
// the raise barrier, so Exception messages for it park in the engine's
// pending buffer and must replay on entry.
type ProgramEntry struct {
	Obj    ident.ObjectID
	Action int
}

// ProgramFamily is one independent action family: a root action over the
// family's objects plus a tree of nested actions, raises, and belated
// entries. Families multiplex over one fabric via the Message.Action tag,
// exactly like concurrent actions on a core.Server.
type ProgramFamily struct {
	// Actions holds the family's action tree; Actions[0] is the root.
	Actions []ProgramAction
	// Raises is the concurrent raise schedule.
	Raises []ProgramRaise
	// Belated lists the post-barrier entries.
	Belated []ProgramEntry
}

// Program is a complete protocol-level case: an exception tree shared by
// every action, plus one or more families.
type Program struct {
	Tree     *exception.Tree
	Families []ProgramFamily
}

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

// Program validation errors.
var (
	ErrBadProgram = errors.New("conformancetest: invalid program")
)

func badProgram(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadProgram, fmt.Sprintf(format, args...))
}

// leafOf returns the index of obj's innermost action in the family (every
// object's entered actions form a chain rooted at Actions[0]).
func (f *ProgramFamily) leafOf(obj ident.ObjectID) int {
	leaf := -1
	for i, a := range f.Actions {
		for _, m := range a.Members {
			if m == obj {
				leaf = i
				break
			}
		}
	}
	return leaf
}

// isAncestor reports whether action index a is a proper ancestor of b within
// the family.
func (f *ProgramFamily) isAncestor(a, b int) bool {
	for p := f.Actions[b].Parent; p >= 0; p = f.Actions[p].Parent {
		if p == a {
			return true
		}
	}
	return false
}

// pathOf builds the ancestry path of the indexed action, outermost first.
func (f *ProgramFamily) pathOf(idx int) []ident.ActionID {
	var rev []ident.ActionID
	for i := idx; i >= 0; i = f.Actions[i].Parent {
		rev = append(rev, f.Actions[i].ID)
	}
	path := make([]ident.ActionID, len(rev))
	for i, a := range rev {
		path[len(rev)-1-i] = a
	}
	return path
}

// Validate checks the structural obligations that make the differential
// comparison sound. It returns ErrBadProgram-wrapped errors.
func (p *Program) Validate() error {
	if p.Tree == nil {
		return badProgram("nil exception tree")
	}
	if len(p.Families) == 0 {
		return badProgram("no families")
	}
	seenAction := make(map[ident.ActionID]bool)
	for fi := range p.Families {
		fam := &p.Families[fi]
		if len(fam.Actions) == 0 {
			return badProgram("family %d: no actions", fi)
		}
		if fam.Actions[0].Parent != -1 {
			return badProgram("family %d: Actions[0] must be the root (Parent -1)", fi)
		}
		memberOf := make([]map[ident.ObjectID]bool, len(fam.Actions))
		for ai, a := range fam.Actions {
			if a.ID <= 0 || seenAction[a.ID] {
				return badProgram("family %d action %d: duplicate or non-positive ID %d", fi, ai, a.ID)
			}
			seenAction[a.ID] = true
			if ai > 0 && (a.Parent < 0 || a.Parent >= ai) {
				return badProgram("family %d action %d: parent %d must precede it", fi, ai, a.Parent)
			}
			if len(a.Members) == 0 {
				return badProgram("family %d action %d: no members", fi, ai)
			}
			memberOf[ai] = make(map[ident.ObjectID]bool, len(a.Members))
			for _, m := range a.Members {
				if m <= 0 {
					return badProgram("family %d action %d: non-positive object %d", fi, ai, m)
				}
				if memberOf[ai][m] {
					return badProgram("family %d action %d: duplicate member %s", fi, ai, m)
				}
				memberOf[ai][m] = true
				if ai > 0 && !memberOf[a.Parent][m] {
					return badProgram("family %d action %d: member %s not in parent", fi, ai, m)
				}
			}
		}
		// Sibling actions must not share members: each object's entered
		// actions form a chain (it can descend into at most one child).
		for ai := range fam.Actions {
			inChild := make(map[ident.ObjectID]int)
			for ci, c := range fam.Actions {
				if c.Parent != ai {
					continue
				}
				for _, m := range c.Members {
					if prev, ok := inChild[m]; ok {
						return badProgram("family %d: object %s in sibling actions %d and %d", fi, m, prev, ci)
					}
					inChild[m] = ci
				}
			}
		}
		// Raises: one per object, raiser never belated, known exception, and
		// the raise sites (raisers' leaves) form an ancestor-free antichain
		// so resolutions never race to abort each other.
		raised := make(map[ident.ObjectID]bool, len(fam.Raises))
		raiseLeaves := make(map[int]bool)
		for _, r := range fam.Raises {
			if raised[r.Obj] {
				return badProgram("family %d: object %s raises twice", fi, r.Obj)
			}
			raised[r.Obj] = true
			if !p.Tree.Contains(r.Exc) {
				return badProgram("family %d: unknown exception %q", fi, r.Exc)
			}
			leaf := fam.leafOf(r.Obj)
			if leaf < 0 {
				return badProgram("family %d: raiser %s is not a family member", fi, r.Obj)
			}
			raiseLeaves[leaf] = true
		}
		for a := range raiseLeaves {
			for b := range raiseLeaves {
				if a != b && fam.isAncestor(a, b) {
					return badProgram("family %d: raise sites %d and %d are ancestor-related", fi, a, b)
				}
			}
		}
		// Belated entries: only at an object's own leaf, never for raisers,
		// and never at an action whose ancestors carry raises (the entry
		// would race the containing resolution's abort sweep). Entering the
		// raise site itself late is allowed — that is the pending-replay
		// path the engine must get right.
		seenBelated := make(map[ProgramEntry]bool, len(fam.Belated))
		for _, b := range fam.Belated {
			if b.Action < 0 || b.Action >= len(fam.Actions) {
				return badProgram("family %d: belated entry action %d out of range", fi, b.Action)
			}
			if seenBelated[b] {
				return badProgram("family %d: duplicate belated entry %s/%d", fi, b.Obj, b.Action)
			}
			seenBelated[b] = true
			if raised[b.Obj] {
				return badProgram("family %d: raiser %s cannot be belated", fi, b.Obj)
			}
			if fam.leafOf(b.Obj) != b.Action {
				return badProgram("family %d: belated entry %s/%d is not the object's leaf", fi, b.Obj, b.Action)
			}
			for anc := fam.Actions[b.Action].Parent; anc >= 0; anc = fam.Actions[anc].Parent {
				if raiseLeaves[anc] {
					return badProgram("family %d: belated entry %s/%d under raise site %d", fi, b.Obj, b.Action, anc)
				}
			}
		}
	}
	return nil
}

// belatedSet indexes a family's belated entries for O(1) lookup.
func (f *ProgramFamily) belatedSet() map[ProgramEntry]bool {
	set := make(map[ProgramEntry]bool, len(f.Belated))
	for _, b := range f.Belated {
		set[b] = true
	}
	return set
}

// ReferenceResolutions runs every family solo on the deterministic fabric
// (protocol.Sim) and returns the committed-resolution map — the value every
// backend must reproduce. The run deliberately forces the belated-entry
// replay path: raises drain to quiescence first, then the belated members
// enter and the parked messages replay.
func ReferenceResolutions(p *Program) (Resolutions, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	const budget = 1 << 20
	res := make(Resolutions)
	for fi := range p.Families {
		fam := &p.Families[fi]
		sim := protocol.NewSim()
		objs := fam.Actions[0].Members
		for _, obj := range objs {
			sim.AddEngine(obj)
		}
		belated := fam.belatedSet()
		for ai, a := range fam.Actions {
			frame := protocol.Frame{
				Action: a.ID, Path: fam.pathOf(ai), Members: a.Members, Tree: p.Tree,
			}
			for _, obj := range a.Members {
				if belated[ProgramEntry{Obj: obj, Action: ai}] {
					continue
				}
				if err := sim.Engines[obj].EnterAction(frame); err != nil {
					return nil, fmt.Errorf("family %d action %s enter %s: %w", fi, a.ID, obj, err)
				}
			}
		}
		for _, r := range fam.Raises {
			ok, err := sim.Engines[r.Obj].RaiseLocal(r.Exc)
			if err != nil {
				return nil, fmt.Errorf("family %d raise %s: %w", fi, r.Obj, err)
			}
			if !ok {
				return nil, fmt.Errorf("family %d raise %s: rejected before any delivery", fi, r.Obj)
			}
		}
		if err := sim.Drain(budget); err != nil {
			return nil, fmt.Errorf("family %d drain: %w", fi, err)
		}
		for _, b := range fam.Belated {
			a := fam.Actions[b.Action]
			frame := protocol.Frame{
				Action: a.ID, Path: fam.pathOf(b.Action), Members: a.Members, Tree: p.Tree,
			}
			if err := sim.Engines[b.Obj].EnterAction(frame); err != nil {
				return nil, fmt.Errorf("family %d belated enter %s/%s: %w", fi, b.Obj, a.ID, err)
			}
		}
		if err := sim.Drain(budget); err != nil {
			return nil, fmt.Errorf("family %d final drain: %w", fi, err)
		}
		for _, a := range fam.Actions {
			for _, obj := range a.Members {
				if exc, ok := sim.Engines[obj].CommittedAt(a.ID); ok {
					res[ResolutionKey{Family: fi, Obj: obj, Action: a.ID}] = exc
				}
			}
		}
	}
	return res, nil
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
func FabricResolutions(fab Fabric, p *Program, want int) (Resolutions, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var execErr error
	var execErrOnce sync.Once

	// Engines per (family, object); demux tables per object.
	engines := make(map[ResolutionKey]*lockedEngine) // Action field unused (0)
	byObj := make(map[ident.ObjectID]map[ident.ActionID]*lockedEngine)
	rootOf := make([]ident.ActionID, len(p.Families))
	for fi := range p.Families {
		fam := &p.Families[fi]
		root := fam.Actions[0].ID
		rootOf[fi] = root
		for _, obj := range fam.Actions[0].Members {
			obj, fi, root := obj, fi, root
			le := &lockedEngine{}
			le.e = protocol.NewEngine(obj, protocol.Hooks{
				Send: func(to ident.ObjectID, m protocol.Msg) {
					if err := fab.Send(transport.Message{
						From: obj, To: to, Kind: m.Kind, Action: root, Payload: m,
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
			le.e.HandleMessage(m.Payload.(protocol.Msg))
			le.mu.Unlock()
		})
	}

	// Pre-barrier entries.
	for fi := range p.Families {
		fam := &p.Families[fi]
		belated := fam.belatedSet()
		for ai, a := range fam.Actions {
			frame := protocol.Frame{
				Action: a.ID, Path: fam.pathOf(ai), Members: a.Members, Tree: p.Tree,
			}
			for _, obj := range a.Members {
				if belated[ProgramEntry{Obj: obj, Action: ai}] {
					continue
				}
				le := engines[ResolutionKey{Family: fi, Obj: obj}]
				le.mu.Lock()
				err := le.e.EnterAction(frame)
				le.mu.Unlock()
				if err != nil {
					return nil, fmt.Errorf("family %d action %s enter %s: %w", fi, a.ID, obj, err)
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
		r      ProgramRaise
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
		engines[ResolutionKey{Family: fr.family, Obj: fr.r.Obj}].mu.Lock()
	}
	for i, fr := range raises {
		if ok, err := engines[ResolutionKey{Family: fr.family, Obj: fr.r.Obj}].e.RaiseLocal(fr.r.Exc); err != nil {
			raiseErrs[i] = err
		} else if !ok {
			raiseErrs[i] = errors.New("raise rejected")
		}
	}
	for i := len(raises) - 1; i >= 0; i-- {
		fr := raises[i]
		engines[ResolutionKey{Family: fr.family, Obj: fr.r.Obj}].mu.Unlock()
	}
	for i, err := range raiseErrs {
		if err != nil {
			return nil, fmt.Errorf("family %d raise on %s: %w", raises[i].family, raises[i].r.Obj, err)
		}
	}

	// Belated entries, racing the in-flight resolutions on purpose: parked
	// Exceptions must replay on entry regardless of arrival order.
	for fi := range p.Families {
		fam := &p.Families[fi]
		for _, b := range fam.Belated {
			a := fam.Actions[b.Action]
			frame := protocol.Frame{
				Action: a.ID, Path: fam.pathOf(b.Action), Members: a.Members, Tree: p.Tree,
			}
			le := engines[ResolutionKey{Family: fi, Obj: b.Obj}]
			//protolint:allow lockorder the raise barrier above released every engine lock before this loop starts; one engine is locked at a time here
			le.mu.Lock()
			err := le.e.EnterAction(frame)
			le.mu.Unlock()
			if err != nil {
				return nil, fmt.Errorf("family %d belated enter %s/%s: %w", fi, b.Obj, a.ID, err)
			}
		}
	}

	committedCount := func() int {
		n := 0
		for fi := range p.Families {
			for _, a := range p.Families[fi].Actions {
				for _, obj := range a.Members {
					le := engines[ResolutionKey{Family: fi, Obj: obj}]
					le.mu.Lock()
					if _, ok := le.e.CommittedAt(a.ID); ok {
						n++
					}
					le.mu.Unlock()
				}
			}
		}
		return n
	}
	if err := fab.Settle(committedCount, want); err != nil {
		return nil, fmt.Errorf("settle: %w", err)
	}
	if execErr != nil {
		return nil, execErr
	}

	got := make(Resolutions)
	for fi := range p.Families {
		for _, a := range p.Families[fi].Actions {
			for _, obj := range a.Members {
				le := engines[ResolutionKey{Family: fi, Obj: obj}]
				//protolint:allow lockorder the raise-barrier locks were all released by the unlock loop above; may-hold cannot correlate the two loop bounds
				le.mu.Lock()
				if exc, ok := le.e.CommittedAt(a.ID); ok {
					got[ResolutionKey{Family: fi, Obj: obj, Action: a.ID}] = exc
				}
				le.mu.Unlock()
			}
		}
	}
	return got, nil
}
