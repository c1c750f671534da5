// Package scengen is the scenario fuzzer: a seeded, fully deterministic
// generator of random CA-action programs — nested action DAGs, belated
// joins, concurrent multi-raiser storms, shared atomic-object access
// patterns, concurrent sibling actions, optional partition injection
// (including heal-and-continue and flapping-member churn schedules) — plus
// a differential oracle that runs every generated case on the deterministic
// backend as reference and holds the Concurrent and TCP backends, the full
// core runtime, and the Campbell–Randell baseline to the same answer. The
// companion scenario families the hand-written library never reached
// (multiparty interactions, competitive/cooperative concurrency mixes) fall
// out of the grammar instead of being scripted one by one.
//
// A Program is plain serialisable data (JSON), so every divergence the
// fuzzer ever finds is shrunk to a minimal repro and checked into
// testdata/corpus, where ordinary `go test` replays it forever. See
// docs/FUZZING.md for the grammar, the oracle invariants and the workflow.
package scengen

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/exception"
	"repro/internal/ident"
)

// Version is the program format version; bump on incompatible changes so
// stale corpus files fail loudly instead of silently meaning something else.
const Version = 1

// ExcNode declares one exception of the program's tree. Nodes are listed in
// topological order: the first node is the root (Parent "") and every parent
// precedes its children.
type ExcNode struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
}

// Action is one CA action of a family's action tree. Members are 1-based
// object numbers; an action's members must be a subset of its parent's and
// sibling actions never share members.
type Action struct {
	// Parent indexes the containing action within the family (-1 for the
	// family root, which is always Actions[0]).
	Parent int `json:"parent"`
	// Members lists the action's participating objects.
	Members []int `json:"members"`
}

// Raise schedules one concurrent raise: the object raises the exception at
// its innermost action (its leaf of the family's action tree).
type Raise struct {
	Obj int    `json:"obj"`
	Exc string `json:"exc"`
	// DelayMS postpones the raise at the core level (milliseconds, small),
	// giving nested members time to enter their actions; the protocol-level
	// oracle ignores it (raises land under the barrier there).
	DelayMS int `json:"delay_ms,omitempty"`
}

// Belated is a belated join: the object enters the indexed action (its
// leaf) only after the other members are already in — after the raise
// barrier at the protocol level, after a short delay at the core level.
type Belated struct {
	Obj    int `json:"obj"`
	Action int `json:"action"`
}

// AtomicOp is one shared atomic-object access: the object adds Add to the
// counter under Key within its leaf action's transaction.
//
// Locking ops (Fast false) go through Read+Write under strict 2PL. Their
// keys are scoped to one action of one family (and unique across families),
// so concurrent transactions never deadlock on the store — contention
// inside an action is the point, contention across transactions is the
// atomicobj suite's job — and they never sit at or below a raise site and
// never belong to belated or raising objects, so every locking op's
// transaction deterministically commits and the oracle can check the final
// store against the exact sum.
//
// Fast ops ride the commutativity fast path (Context.Add): Increment-class
// deltas commute, so a fast key MAY span actions and families — that is the
// high-contention shape the fast path exists for — and a fast op MAY sit
// strictly below a raise site, where its transaction's fate is still
// deterministic (aborted under the Figure 1(b) abort policy, committed
// under WaitForNested), keeping the expected sum exact. A key must be
// all-fast or all-locking; fast ops still never sit AT a raise site and
// never belong to belated or raising objects.
type AtomicOp struct {
	Obj  int    `json:"obj"`
	Key  string `json:"key"`
	Add  int    `json:"add"`
	Fast bool   `json:"fast,omitempty"`
}

// Family is one independent top-level CA action: an action tree over its
// objects, a raise schedule, belated joins and atomic-object traffic.
// Programs with several families run them concurrently over one shared
// server and demand each family still matches its solo run.
type Family struct {
	// Objects lists the family's participating objects (1-based numbers).
	// Families may share objects: the multiplexing layers must keep their
	// sessions apart.
	Objects []int `json:"objects"`
	// Actions is the family's action tree; Actions[0] is the root and must
	// have Parent -1 and exactly the family's objects as members.
	Actions []Action `json:"actions"`
	// Raises is the concurrent raise schedule.
	Raises []Raise `json:"raises,omitempty"`
	// Belated lists the belated joins.
	Belated []Belated `json:"belated,omitempty"`
	// WaitForNested selects the Figure 1(a) nested policy for the family's
	// actions at the core level (default: abort nested actions, 1(b)).
	WaitForNested bool `json:"wait_for_nested,omitempty"`
	// Ops is the shared atomic-object schedule.
	Ops []AtomicOp `json:"ops,omitempty"`
}

// Partition injects a mid-run partition: the cut objects are isolated from
// the majority after DelayMS, the membership monitor expels them, and the
// expulsion resolves through the §4 machinery as the predefined
// participant-failure exception. Partition programs are single-family and
// run on the core level only (membership monitoring is a server option).
//
// With Heal set the partition becomes a heal-and-continue schedule instead:
// the cut is expelled, the partition heals, the expelled members rejoin the
// persistent group view-synchronously (petition, state transfer, re-entry in
// the next epoch view), and only then do the family's raises fire — in a
// whole-group post-heal run whose resolution the rejoined members must
// commit like everyone else. Flap repeats the expel/heal/rejoin cycle
// (the flapping-member schedule) before that final run.
type Partition struct {
	Cut     []int `json:"cut"`
	DelayMS int   `json:"delay_ms,omitempty"`
	// Heal selects the heal-and-continue schedule described above.
	Heal bool `json:"heal,omitempty"`
	// Flap adds extra expel/heal/rejoin cycles (Flap+1 total); requires Heal.
	Flap int `json:"flap,omitempty"`
}

// delay is how long after the run starts the cut lands: DelayMS, by default
// 20 ms, time for the participants to bind and exchange first heartbeats.
func (pt *Partition) delay() time.Duration {
	if pt.DelayMS == 0 {
		return 20 * time.Millisecond
	}
	return time.Duration(pt.DelayMS) * time.Millisecond
}

// objects returns the cut as object identifiers.
func (pt *Partition) objects() []ident.ObjectID { return objectIDs(pt.Cut) }

// Program is one complete generated case.
type Program struct {
	Version int    `json:"version"`
	Seed    uint64 `json:"seed"`
	// Exceptions declares the exception tree, root first, parents before
	// children.
	Exceptions []ExcNode  `json:"exceptions"`
	Families   []Family   `json:"families"`
	Partition  *Partition `json:"partition,omitempty"`
}

// Bytes returns the canonical encoding of the program: identical programs
// encode to identical bytes (encoding/json emits struct fields in
// declaration order), which is what the determinism gate diffs.
func (p *Program) Bytes() []byte {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		// A Program is plain data; this cannot fail.
		panic(err)
	}
	return append(b, '\n')
}

// Decode parses a canonical program encoding.
func Decode(data []byte) (*Program, error) {
	var p Program
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("scengen: decode: %w", err)
	}
	if p.Version != Version {
		return nil, fmt.Errorf("scengen: program version %d, want %d", p.Version, Version)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Tree builds the program's exception tree. With a partition present the
// predefined core participant-failure exception is grafted under the root,
// which membership monitoring requires.
func (p *Program) Tree() (*exception.Tree, error) {
	if len(p.Exceptions) == 0 {
		return nil, errors.New("scengen: no exceptions")
	}
	b := exception.NewBuilder(p.Exceptions[0].Name)
	for _, n := range p.Exceptions[1:] {
		b.Add(n.Name, n.Parent)
	}
	if p.Partition != nil {
		b.Add(excParticipantFailure, p.Exceptions[0].Name)
	}
	return b.Build()
}

// maxActions bounds a family's action tree so that actionID stays unique.
const maxActions = 1000

// actionID assigns globally unique protocol-level action identifiers:
// family f's action a gets f*1000 + a + 1, so the root of family 0 is 1.
func actionID(family, action int) ident.ActionID {
	return ident.ActionID(family*maxActions + action + 1)
}

// objectIDs converts 1-based object numbers to object identifiers.
func objectIDs(objs []int) []ident.ObjectID {
	ids := make([]ident.ObjectID, len(objs))
	for i, o := range objs {
		ids[i] = ident.ObjectID(o)
	}
	return ids
}

// leafOf returns the index of obj's innermost action in the family, or -1.
func (f *Family) leafOf(obj int) int {
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

// raisersAt counts the raisers whose leaf is the indexed action.
func (f *Family) raisersAt(action int) []Raise {
	var out []Raise
	for _, r := range f.Raises {
		if f.leafOf(r.Obj) == action {
			out = append(out, r)
		}
	}
	return out
}

// RaiseSites returns the set of action indices where raises land, sorted.
func (f *Family) RaiseSites() []int {
	set := make(map[int]bool)
	for _, r := range f.Raises {
		set[f.leafOf(r.Obj)] = true
	}
	sites := make([]int, 0, len(set))
	for s := range set {
		sites = append(sites, s)
	}
	sort.Ints(sites)
	return sites
}

// Validate checks the program: the exception tree, each family's structure
// (validateTree), the atomic-object schedule and the partition.
func (p *Program) Validate() error {
	if p.Version != Version {
		return fmt.Errorf("scengen: program version %d, want %d", p.Version, Version)
	}
	if len(p.Exceptions) == 0 {
		return errors.New("scengen: no exceptions")
	}
	if p.Exceptions[0].Parent != "" {
		return errors.New("scengen: first exception must be the root")
	}
	for i, n := range p.Exceptions {
		if n.Name == "" {
			return fmt.Errorf("scengen: exception %d unnamed", i)
		}
		if i > 0 && n.Parent == "" {
			return fmt.Errorf("scengen: exception %q has no parent", n.Name)
		}
		if n.Name == excParticipantFailure {
			return fmt.Errorf("scengen: exception name %q is reserved", n.Name)
		}
	}
	tree, err := p.Tree()
	if err != nil {
		return fmt.Errorf("scengen: %w", err)
	}
	if len(p.Families) == 0 {
		return errors.New("scengen: no families")
	}
	keyOwner := make(map[string]string) // locking-op key -> "family/action" claim
	fastKeys := make(map[string]bool)   // key -> carries fast ops
	slowKeys := make(map[string]bool)   // key -> carries locking ops
	for fi, fam := range p.Families {
		if len(fam.Objects) == 0 {
			return fmt.Errorf("scengen: family %d has no objects", fi)
		}
		if len(fam.Actions) == 0 {
			return fmt.Errorf("scengen: family %d has no actions", fi)
		}
		rootMembers := make(map[int]bool, len(fam.Objects))
		for _, o := range fam.Objects {
			if o < 1 {
				return fmt.Errorf("scengen: family %d object %d must be >= 1", fi, o)
			}
			if rootMembers[o] {
				return fmt.Errorf("scengen: family %d object %d listed twice", fi, o)
			}
			rootMembers[o] = true
		}
		if len(fam.Actions[0].Members) != len(fam.Objects) {
			return fmt.Errorf("scengen: family %d root members differ from objects", fi)
		}
		for _, m := range fam.Actions[0].Members {
			if !rootMembers[m] {
				return fmt.Errorf("scengen: family %d root member %d not an object", fi, m)
			}
		}
		if err := fam.validateTree(fi, tree); err != nil {
			return err
		}
		for _, r := range fam.Raises {
			if r.DelayMS < 0 {
				return fmt.Errorf("scengen: family %d raise delay %dms is negative", fi, r.DelayMS)
			}
		}
		belatedObjs := make(map[int]bool, len(fam.Belated))
		for _, b := range fam.Belated {
			belatedObjs[b.Obj] = true
		}
		sites := fam.RaiseSites()
		underRaise := func(action int) bool {
			for _, site := range sites {
				if site == action || fam.isAncestorAction(site, action) {
					return true
				}
			}
			return false
		}
		for _, op := range fam.Ops {
			leaf := fam.leafOf(op.Obj)
			if leaf < 0 {
				return fmt.Errorf("scengen: family %d op object %d not a member", fi, op.Obj)
			}
			if op.Key == "" {
				return fmt.Errorf("scengen: family %d op without key", fi)
			}
			if op.Add < 1 || op.Add > 1000 {
				return fmt.Errorf("scengen: family %d op add %d out of [1, 1000]", fi, op.Add)
			}
			if belatedObjs[op.Obj] {
				return fmt.Errorf("scengen: family %d op on belated object %d", fi, op.Obj)
			}
			if op.Fast {
				// Fast ops commute, so the key may span actions and families,
				// and a delta strictly below a raise site is still
				// deterministic: the nested policy decides its fate, not the
				// abort/body race. AT a site the op's own transaction races
				// the resolution, so that stays out; a raiser's leaf is a
				// site by definition.
				if slices.Contains(sites, leaf) {
					return fmt.Errorf("scengen: family %d fast op on %d sits at a raise site", fi, op.Obj)
				}
				fastKeys[op.Key] = true
				continue
			}
			// Deterministic commitment: a locking op at or below a raise site
			// could be rolled back — or not — depending on whether the abort
			// beats the body, and a belated object's op races the resolution
			// its late entry replays into. Keeping ops away from both makes
			// the final store an exact, checkable sum.
			if underRaise(leaf) {
				return fmt.Errorf("scengen: family %d op on %d sits at/below a raise site", fi, op.Obj)
			}
			// One key, one action (globally): members of an action share its
			// transaction, so intra-action contention is serialised; keys
			// spanning actions or families would hit 2PL wait-die aborts and
			// make outcomes depend on lock-grant timing.
			claim := fmt.Sprintf("%d/%d", fi, leaf)
			if prev, ok := keyOwner[op.Key]; ok && prev != claim {
				return fmt.Errorf("scengen: op key %q spans %s and %s", op.Key, prev, claim)
			}
			keyOwner[op.Key] = claim
			slowKeys[op.Key] = true
		}
	}
	// A key is all-fast or all-locking: mixing would make a locking access
	// drain another family's pending deltas (or die trying), reintroducing
	// the lock-grant timing dependence the claims above rule out.
	for k := range fastKeys {
		if slowKeys[k] {
			return fmt.Errorf("scengen: op key %q mixes fast and locking ops", k)
		}
	}
	if p.Partition != nil {
		if len(p.Families) != 1 {
			return errors.New("scengen: partition programs must be single-family")
		}
		fam := p.Families[0]
		if len(fam.Belated) > 0 {
			return errors.New("scengen: partition programs cannot have belated joins")
		}
		if p.Partition.DelayMS < 0 {
			return fmt.Errorf("scengen: partition delay %dms is negative", p.Partition.DelayMS)
		}
		if p.Partition.Flap < 0 {
			return fmt.Errorf("scengen: partition flap %d is negative", p.Partition.Flap)
		}
		if p.Partition.Flap > 0 && !p.Partition.Heal {
			return errors.New("scengen: flapping partitions must heal")
		}
		members := make(map[int]bool, len(fam.Objects))
		for _, o := range fam.Objects {
			members[o] = true
		}
		seen := make(map[int]bool, len(p.Partition.Cut))
		for _, c := range p.Partition.Cut {
			if !members[c] {
				return fmt.Errorf("scengen: cut object %d not a family member", c)
			}
			if seen[c] {
				return fmt.Errorf("scengen: cut object %d listed twice", c)
			}
			seen[c] = true
		}
		if len(p.Partition.Cut) == 0 {
			return errors.New("scengen: empty partition cut")
		}
		if survivors := len(fam.Objects) - len(p.Partition.Cut); 2*survivors <= len(fam.Objects) {
			return errors.New("scengen: partition must leave a strict majority")
		}
		// Raisers and nested members must survive: the oracle's expectations
		// are about the majority's resolution, not about racing a cut member
		// into a raise.
		for _, r := range fam.Raises {
			if seen[r.Obj] {
				return fmt.Errorf("scengen: raiser %d is in the cut", r.Obj)
			}
			if p.Families[0].leafOf(r.Obj) != 0 {
				return errors.New("scengen: partition programs raise at the root only")
			}
		}
		for ai, a := range fam.Actions[1:] {
			for _, m := range a.Members {
				if seen[m] {
					return fmt.Errorf("scengen: cut object %d is inside nested action %d", m, ai+1)
				}
			}
		}
	}
	return nil
}

// validateTree checks the family's action tree, raises and belated joins
// against the rules that make the protocol tier's strict comparison sound
// (see resolutions.go): every object's actions form one chain, the raise
// sites form an ancestor-free antichain, and a belated entry never races a
// containing resolution.
func (f *Family) validateTree(fi int, tree *exception.Tree) error {
	if len(f.Actions) > maxActions {
		return fmt.Errorf("scengen: family %d has %d actions, more than %d", fi, len(f.Actions), maxActions)
	}
	if f.Actions[0].Parent != -1 {
		return fmt.Errorf("scengen: family %d root action must have parent -1", fi)
	}
	// Sibling actions share no member: each object's entered actions form a
	// chain (it can descend into at most one child).
	inChild := make(map[[2]int]int) // (parent, member) -> child
	for ai, a := range f.Actions {
		if ai > 0 && (a.Parent < 0 || a.Parent >= ai) {
			return fmt.Errorf("scengen: family %d action %d: parent %d must precede it", fi, ai, a.Parent)
		}
		if len(a.Members) == 0 {
			return fmt.Errorf("scengen: family %d action %d has no members", fi, ai)
		}
		seen := make(map[int]bool, len(a.Members))
		for _, m := range a.Members {
			if seen[m] {
				return fmt.Errorf("scengen: family %d action %d lists member %d twice", fi, ai, m)
			}
			seen[m] = true
			if ai == 0 {
				continue
			}
			if !slices.Contains(f.Actions[a.Parent].Members, m) {
				return fmt.Errorf("scengen: family %d action %d: member %d not in parent", fi, ai, m)
			}
			if prev, ok := inChild[[2]int{a.Parent, m}]; ok {
				return fmt.Errorf("scengen: family %d: object %d in sibling actions %d and %d", fi, m, prev, ai)
			}
			inChild[[2]int{a.Parent, m}] = ai
		}
	}
	raised := make(map[int]bool, len(f.Raises))
	for _, r := range f.Raises {
		if raised[r.Obj] {
			return fmt.Errorf("scengen: family %d: object %d raises twice", fi, r.Obj)
		}
		raised[r.Obj] = true
		if !tree.Contains(r.Exc) {
			return fmt.Errorf("scengen: family %d: unknown exception %q", fi, r.Exc)
		}
		if f.leafOf(r.Obj) < 0 {
			return fmt.Errorf("scengen: family %d: raiser %d is not a member", fi, r.Obj)
		}
	}
	// Ancestor-free raise sites: no two resolutions race to abort each other.
	sites := f.RaiseSites()
	for _, a := range sites {
		for _, b := range sites {
			if a != b && f.isAncestorAction(a, b) {
				return fmt.Errorf("scengen: family %d: raise sites %d and %d are ancestor-related", fi, a, b)
			}
		}
	}
	// Belated entries: only at an object's own leaf, never for raisers, and
	// never under a raise site (the entry would race the containing
	// resolution's abort sweep). Entering the raise site itself late is the
	// pending-replay path the engine must get right. The root is never
	// entered late: at the core level every body starts together, so only
	// nested actions can be (via a delayed Enclose).
	seen := make(map[Belated]bool, len(f.Belated))
	for _, b := range f.Belated {
		if b.Action < 1 || b.Action >= len(f.Actions) {
			return fmt.Errorf("scengen: family %d: belated entry %d/%d outside the nested actions", fi, b.Obj, b.Action)
		}
		if seen[b] {
			return fmt.Errorf("scengen: family %d: belated entry %d/%d listed twice", fi, b.Obj, b.Action)
		}
		seen[b] = true
		if raised[b.Obj] {
			return fmt.Errorf("scengen: family %d: raiser %d cannot be belated", fi, b.Obj)
		}
		if f.leafOf(b.Obj) != b.Action {
			return fmt.Errorf("scengen: family %d: belated entry %d/%d is not the object's leaf", fi, b.Obj, b.Action)
		}
		for anc := f.Actions[b.Action].Parent; anc >= 0; anc = f.Actions[anc].Parent {
			if slices.Contains(sites, anc) {
				return fmt.Errorf("scengen: family %d: belated entry %d/%d under raise site %d", fi, b.Obj, b.Action, anc)
			}
		}
	}
	return nil
}
