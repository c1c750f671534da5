package scengen

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/atomicobj"
	"repro/internal/core"
	"repro/internal/exception"
	"repro/internal/ident"
	"repro/internal/transport/conformancetest"
)

// The core tier runs every generated program through the full stack — server,
// dispatchers, participants, transactions — and holds the outcomes to the
// protocol-level reference. The timing scheme makes the checks deterministic:
// raisers raise a few milliseconds in, everyone else lingers at their leaf
// long enough (oracleTiming's linger) that every raise lands while its site's
// members are still inside the action, so which nested actions get aborted,
// which transactions commit and which resolutions run never depends on
// backend speed. Families without raises do not linger at all. Run's presets
// compile with their own timing (presetTiming); the timing is all that
// differs.

const excParticipantFailure = core.ExcParticipantFailure

// coreTiming parameterises the compiled bodies.
type coreTiming struct {
	// linger is the leaf dwell of non-raisers in families that raise.
	linger time.Duration
	// belated is the entry delay of belated joins.
	belated time.Duration
	// raiseAt is the base delay before every raise (plus the raise's own
	// DelayMS).
	raiseAt time.Duration
	// forever makes non-raisers dwell until a resolution terminates them —
	// partition runs, where the run ends through the expulsion machinery.
	forever bool
	// abortCost is the work each abortion handler of a nested action does.
	abortCost time.Duration
}

// oracleTiming is the core tier's timing for partition-free runs. The linger
// must comfortably exceed raise delivery so the abort/commit structure never
// depends on timing.
var oracleTiming = coreTiming{linger: 150 * time.Millisecond, belated: 10 * time.Millisecond, raiseAt: 2 * time.Millisecond}

// recKey addresses one recorded nested-action result.
type recKey struct {
	Family, Action, Obj int
}

// recorder collects the NestedResult of every Enclose that returned.
type recorder struct {
	mu sync.Mutex
	m  map[recKey]core.NestedResult
}

func newRecorder() *recorder {
	return &recorder{m: make(map[recKey]core.NestedResult)}
}

func (r *recorder) put(k recKey, v core.NestedResult) {
	r.mu.Lock()
	r.m[k] = v
	r.mu.Unlock()
}

// sortedKeys returns the recorded keys in deterministic order.
func (r *recorder) sortedKeys() []recKey {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]recKey, 0, len(r.m))
	for k := range r.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Family != b.Family {
			return a.Family < b.Family
		}
		if a.Action != b.Action {
			return a.Action < b.Action
		}
		return a.Obj < b.Obj
	})
	return keys
}

// chainOf returns obj's action chain within the family, root first.
func chainOf(f *Family, obj int) []int {
	var rev []int
	for i := f.leafOf(obj); i >= 0; i = f.Actions[i].Parent {
		rev = append(rev, i)
	}
	chain := make([]int, len(rev))
	for i, a := range rev {
		chain[len(rev)-1-i] = a
	}
	return chain
}

// compileFamily lowers one family to a core.Definition whose bodies follow
// the timing scheme above and record every nested result into rec.
func compileFamily(fi int, fam *Family, tree *exception.Tree, rec *recorder, t coreTiming) core.Definition {
	policy := core.AbortNestedActions
	if fam.WaitForNested {
		policy = core.WaitForNestedActions
	}
	noop := core.HandlerSet{Default: func(*core.RecoveryContext, exception.Exception) (string, error) {
		return "", nil
	}}

	specs := make([]*core.ActionSpec, len(fam.Actions))
	for ai, a := range fam.Actions {
		members := make([]ident.ObjectID, len(a.Members))
		handlers := make(map[ident.ObjectID]core.HandlerSet, len(a.Members))
		for i, m := range a.Members {
			members[i] = ident.ObjectID(m)
			handlers[ident.ObjectID(m)] = noop
		}
		specs[ai] = &core.ActionSpec{
			Name:     fmt.Sprintf("f%d-a%d", fi, ai),
			Tree:     tree,
			Members:  members,
			Handlers: handlers,
			Policy:   policy,
		}
		if ai > 0 && t.abortCost > 0 {
			cost := t.abortCost
			specs[ai].Abortion = make(map[ident.ObjectID]core.AbortionHandler, len(members))
			for _, m := range members {
				specs[ai].Abortion[m] = func(*core.RecoveryContext) string {
					time.Sleep(cost)
					return ""
				}
			}
		}
	}

	raiseOf := make(map[int]Raise, len(fam.Raises))
	for _, r := range fam.Raises {
		raiseOf[r.Obj] = r
	}
	belatedAt := make(map[int]int, len(fam.Belated))
	for _, b := range fam.Belated {
		belatedAt[b.Obj] = b.Action
	}
	opsOf := make(map[int][]AtomicOp)
	for _, op := range fam.Ops {
		opsOf[op.Obj] = append(opsOf[op.Obj], op)
	}
	hasRaises := len(fam.Raises) > 0

	// Read-or-zero then write: the counter does not exist until the first
	// member of the action bumps it. The members of an action share one
	// transaction, so 2PL does not keep two of them apart: without rmw, two
	// that read the same value write over each other and the exact sum the
	// oracle demands comes up short (one run in a few dozen on a loaded box).
	var rmw sync.Mutex
	bump := func(ctx *core.Context, op AtomicOp) error {
		rmw.Lock()
		defer rmw.Unlock() // Read and Write are checkpoints: they may unwind
		n := 0
		v, err := ctx.Read(op.Key)
		if err == nil {
			n, _ = v.(int)
		} else if !errors.Is(err, atomicobj.ErrNoSuchObject) {
			return err
		}
		return ctx.Write(op.Key, n+op.Add)
	}

	bodies := make(map[ident.ObjectID]core.Body, len(fam.Objects))
	for _, obj := range fam.Objects {
		obj := obj
		chain := chainOf(fam, obj)
		atLeaf := func(ctx *core.Context) error {
			for _, op := range opsOf[obj] {
				if op.Fast {
					// Commutativity fast path: the delta joins the pending
					// log without locking, so fast keys may be hammered from
					// several actions and families at once.
					if err := ctx.Add(op.Key, op.Add); err != nil {
						return err
					}
					continue
				}
				if err := bump(ctx, op); err != nil {
					return err
				}
			}
			if r, ok := raiseOf[obj]; ok {
				if d := t.raiseAt + time.Duration(r.DelayMS)*time.Millisecond; d > 0 {
					ctx.Sleep(d)
				}
				ctx.Raise(r.Exc) // never returns
			}
			if t.forever {
				ctx.Sleep(time.Hour)
			} else if hasRaises {
				ctx.Sleep(t.linger)
			}
			return nil
		}
		var descend func(ctx *core.Context, idx int) error
		descend = func(ctx *core.Context, idx int) error {
			if idx == len(chain) {
				return atLeaf(ctx)
			}
			ai := chain[idx]
			if at, ok := belatedAt[obj]; ok && at == ai {
				ctx.Sleep(t.belated)
			}
			nres, err := ctx.Enclose(specs[ai], func(nc *core.Context) error {
				return descend(nc, idx+1)
			})
			if err != nil {
				return err
			}
			rec.put(recKey{Family: fi, Action: ai, Obj: obj}, nres)
			return nil
		}
		bodies[ident.ObjectID(obj)] = func(ctx *core.Context) error {
			return descend(ctx, 1)
		}
	}

	return core.Definition{Spec: *specs[0], Bodies: bodies}
}

// siteRef extracts the reference resolution of every (family, raise site)
// from the protocol-level reference map, checking the members agree.
func siteRef(p *Program, ref conformancetest.Resolutions, rep *Report) map[[2]int]string {
	out := make(map[[2]int]string)
	for fi := range p.Families {
		fam := &p.Families[fi]
		for _, site := range fam.RaiseSites() {
			var val string
			for i, m := range fam.Actions[site].Members {
				v, ok := ref[conformancetest.ResolutionKey{
					Family: fi, Obj: ident.ObjectID(m), Action: actionID(fi, site),
				}]
				if !ok {
					rep.add("proto/reference", "family %d site %d: member %d committed nothing", fi, site, m)
					continue
				}
				if i == 0 {
					val = v
				} else if v != val {
					rep.add("proto/reference", "family %d site %d: members disagree (%q vs %q)", fi, site, val, v)
				}
			}
			out[[2]int{fi, site}] = val
		}
	}
	return out
}

// resolutionCandidates enumerates every resolution a racy raise subset can
// commit: Resolve(S) for all non-empty S ⊆ raises (plus the participant
// failure when withPF). nil means the set is too large to enumerate; callers
// then only check the resolution is non-empty.
func resolutionCandidates(tree *exception.Tree, raises []Raise, withPF bool) map[string]bool {
	if len(raises) > 16 {
		return nil
	}
	out := make(map[string]bool)
	start := 1
	if withPF {
		start = 0
	}
	for mask := start; mask < 1<<len(raises); mask++ {
		var names []string
		if withPF {
			names = append(names, excParticipantFailure)
		}
		for i, r := range raises {
			if mask&(1<<i) != 0 {
				names = append(names, r.Exc)
			}
		}
		if res, err := tree.Resolve(names); err == nil {
			out[res] = true
		}
	}
	return out
}

// checkFamilyOutcome verifies one family's full-stack run against the
// program's deterministic expectations and the protocol reference.
func checkFamilyOutcome(rep *Report, stage string, p *Program, tree *exception.Tree, fi int, out core.Outcome, err error, rec *recorder, refSites map[[2]int]string) {
	fam := &p.Families[fi]
	if err != nil {
		if errors.Is(err, core.ErrTimeout) {
			rep.add(stage, "family %d: run timed out", fi)
		} else {
			rep.add(stage, "family %d: run error: %v", fi, err)
		}
		return
	}
	if !out.Completed {
		rep.add(stage, "family %d: action did not complete", fi)
	}
	if out.Signalled != "" {
		rep.add(stage, "family %d: unexpected signal %q (all handlers are noop)", fi, out.Signalled)
	}
	if out.AcceptanceFailed {
		rep.add(stage, "family %d: unexpected acceptance failure", fi)
	}
	if len(out.Expelled) != 0 {
		rep.add(stage, "family %d: unexpected expulsions %v", fi, out.Expelled)
	}

	// Root resolution.
	rootRaises := fam.raisersAt(0)
	switch {
	case len(rootRaises) == 0:
		if out.Resolved != "" {
			rep.add(stage, "family %d: resolved %q at a raise-free root", fi, out.Resolved)
		}
	case len(rootRaises) == 1:
		if want := refSites[[2]int{fi, 0}]; out.Resolved != want {
			rep.add(stage, "family %d: root resolved %q, reference %q", fi, out.Resolved, want)
		}
	default:
		cands := resolutionCandidates(tree, rootRaises, false)
		if cands == nil {
			if out.Resolved == "" {
				rep.add(stage, "family %d: root storm resolved nothing", fi)
			}
		} else if !cands[out.Resolved] {
			rep.add(stage, "family %d: root storm resolved %q, not a resolution of any raise subset", fi, out.Resolved)
		}
	}

	// Nested results: classify each recorded action against the raise sites.
	sites := make(map[int][]Raise)
	for _, site := range fam.RaiseSites() {
		sites[site] = fam.raisersAt(site)
	}
	underSite := func(action int) bool {
		for site := range sites {
			if fam.isAncestorAction(site, action) {
				return true
			}
		}
		return false
	}
	siteSeen := make(map[int]string) // site -> first recorded resolution
	for _, k := range rec.sortedKeys() {
		if k.Family != fi {
			continue
		}
		nres := rec.m[k]
		switch {
		case len(sites[k.Action]) > 0:
			raises := sites[k.Action]
			if !nres.Completed {
				rep.add(stage, "family %d action %d: site member %d did not complete", fi, k.Action, k.Obj)
			}
			if len(raises) == 1 {
				if want := refSites[[2]int{fi, k.Action}]; nres.Resolved != want {
					rep.add(stage, "family %d action %d: member %d resolved %q, reference %q", fi, k.Action, k.Obj, nres.Resolved, want)
				}
			} else {
				cands := resolutionCandidates(tree, raises, false)
				if cands != nil && !cands[nres.Resolved] {
					rep.add(stage, "family %d action %d: member %d resolved %q, not a resolution of any raise subset", fi, k.Action, k.Obj, nres.Resolved)
				}
			}
			if prev, ok := siteSeen[k.Action]; !ok {
				siteSeen[k.Action] = nres.Resolved
			} else if prev != nres.Resolved {
				rep.add(stage, "family %d action %d: members disagree (%q vs %q)", fi, k.Action, prev, nres.Resolved)
			}
		case underSite(k.Action):
			if !fam.WaitForNested {
				rep.add(stage, "family %d action %d: nested action under a raise site completed (member %d) despite the abort policy", fi, k.Action, k.Obj)
			} else if !nres.Completed || nres.Resolved != "" {
				rep.add(stage, "family %d action %d: waited-for nested action finished abnormally for member %d (%+v)", fi, k.Action, k.Obj, nres)
			}
		default:
			if !nres.Completed || nres.Resolved != "" {
				rep.add(stage, "family %d action %d: raise-free action finished abnormally for member %d (%+v)", fi, k.Action, k.Obj, nres)
			}
		}
	}
}

// expectedSums computes the deterministic final store. Locking ops always
// commit (validation keeps them away from raise sites, belated objects and
// aborted subtrees), so they contribute their Add. A fast op strictly below
// a raise site commits exactly when the family waits for nested actions
// (Figure 1(a)); under the abort policy its pending delta is discarded with
// the nested transaction and contributes zero — the key still appears in
// the map so a wrongly-committed delta is caught, not skipped.
func expectedSums(p *Program, families []int) map[string]int {
	out := make(map[string]int)
	for _, fi := range families {
		fam := &p.Families[fi]
		underSite := func(action int) bool {
			for _, site := range fam.RaiseSites() {
				if fam.isAncestorAction(site, action) {
					return true
				}
			}
			return false
		}
		for _, op := range fam.Ops {
			if op.Fast && underSite(fam.leafOf(op.Obj)) && !fam.WaitForNested {
				out[op.Key] += 0
				continue
			}
			out[op.Key] += op.Add
		}
	}
	return out
}

func checkSums(rep *Report, stage string, snapshot map[string]any, want map[string]int) {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		got, _ := snapshot[k].(int)
		if got != want[k] {
			rep.add(stage, "atomic object %q holds %d, want %d", k, got, want[k])
		}
	}
}

// checkCore runs the (partition-free) program through the full stack over the
// raw netsim transport: each family solo, then — when there are several — all
// families concurrently on one shared server.
func checkCore(p *Program, tree *exception.Tree, ref conformancetest.Resolutions, opts Options, rep *Report) {
	refSites := siteRef(p, ref, rep)
	cfg := Config{Timeout: opts.RunTimeout}

	// Solo: one private server per family, so the store sums and the outcome
	// are attributable to that family alone.
	for fi := range p.Families {
		const stage = "core/raw/solo"
		res := run(p, cfg, []int{fi}, oracleTiming)
		checkFamilyOutcome(rep, stage, p, tree, fi, res.Outcomes[0], res.Errs[0], res.rec, refSites)
		if res.Errs[0] == nil {
			checkSums(rep, stage, res.store, expectedSums(p, []int{fi}))
		}
	}
	// Multiplexed: every family concurrently on one shared server.
	if len(p.Families) > 1 {
		const stage = "core/raw/multi"
		all := make([]int, len(p.Families))
		for fi := range all {
			all[fi] = fi
		}
		res := run(p, cfg, all, oracleTiming)
		ok := true
		for fi := range all {
			ok = ok && res.Errs[fi] == nil
			checkFamilyOutcome(rep, stage, p, tree, fi, res.Outcomes[fi], res.Errs[fi], res.rec, refSites)
		}
		if ok {
			checkSums(rep, stage, res.store, expectedSums(p, all))
		}
	}
}

// checkPartition runs a partition program through the membership-monitored
// stack on the virtual clock: the cut is installed mid-run, the survivors must
// expel exactly the cut, and the resolution must account for the participant
// failure.
func checkPartition(p *Program, tree *exception.Tree, ref conformancetest.Resolutions, opts Options, rep *Report) {
	const stage = "core/partition"
	siteRef(p, ref, rep) // the reference must agree; the run has its own expectations below
	fam := &p.Families[0]

	timing := coreTiming{
		// Raises fire only after the cut is decided, so the expulsion always
		// participates in the resolution.
		raiseAt: p.Partition.delay() + 60*time.Millisecond,
		forever: true,
	}
	res := run(p, Config{Virtual: true, Timeout: opts.RunTimeout}, []int{0}, timing)
	out, err := res.Outcomes[0], res.Errs[0]
	if err != nil {
		rep.add(stage, "run error: %v", err)
		return
	}
	if !out.Completed {
		rep.add(stage, "action did not complete")
	}
	expectExpelled(rep, stage, out.Expelled, p.Partition.objects())
	if len(fam.Raises) == 0 {
		if out.Resolved != excParticipantFailure {
			rep.add(stage, "crash-only partition resolved %q, want %q", out.Resolved, excParticipantFailure)
		}
	} else {
		cands := resolutionCandidates(tree, fam.Raises, true)
		if cands == nil {
			if out.Resolved == "" {
				rep.add(stage, "partitioned storm resolved nothing")
			}
		} else if !cands[out.Resolved] {
			rep.add(stage, "partition resolved %q, not a resolution of the participant failure with any raise subset", out.Resolved)
		}
	}
	for _, obj := range fam.Objects {
		po, ok := out.PerObject[ident.ObjectID(obj)]
		if !ok {
			rep.add(stage, "object %d has no per-object result", obj)
			continue
		}
		if slices.Contains(p.Partition.Cut, obj) {
			if !po.Expelled {
				rep.add(stage, "cut object %d was not marked expelled", obj)
			}
		} else if !po.Completed {
			rep.add(stage, "surviving object %d did not complete", obj)
		}
	}
}

// expectExpelled holds an outcome's expulsion list to exactly the cut.
func expectExpelled(rep *Report, stage string, got, cut []ident.ObjectID) {
	want := append([]ident.ObjectID(nil), cut...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	match := len(got) == len(want)
	if match {
		for i := range want {
			if got[i] != want[i] {
				match = false
				break
			}
		}
	}
	if !match {
		rep.add(stage, "expelled %v, want exactly the cut %v", got, want)
	}
}

// checkChurn runs a heal-and-continue (Heal) or flapping-member (Flap > 0)
// partition program through the persistent, rejoin-enabled stack: each cycle
// the cut must be expelled by the surviving majority as the participant
// failure and, once the partition heals, readmitted whole. Only after the last
// cycle do the program's own raises fire, in a whole-group post-heal run held
// to the same expectations as any partition-free family — plus the
// churn-specific one: every rejoined member commits the post-heal resolution
// like everyone else. The whole schedule runs on the virtual clock, so the
// detector timeouts and lease terms cost virtual time only and a multi-cycle
// program stays cheap enough for fuzz workers.
func checkChurn(p *Program, tree *exception.Tree, ref conformancetest.Resolutions, opts Options, rep *Report) {
	const stage = "core/churn"
	refSites := siteRef(p, ref, rep)
	cut := p.Partition.objects()

	res := run(p, Config{Virtual: true, Timeout: opts.RunTimeout}, []int{0}, oracleTiming)
	for cycle, c := range res.Cycles {
		expectExpelled(rep, stage, c.Cut.Expelled, cut)
		if c.Cut.Resolved != excParticipantFailure {
			rep.add(stage, "cycle %d cut run resolved %q, want %q", cycle, c.Cut.Resolved, excParticipantFailure)
		}
		if len(c.Rejoin.Rejoined) != len(cut) {
			rep.add(stage, "cycle %d readmitted %v, want the whole cut %v", cycle, c.Rejoin.Rejoined, cut)
		}
	}
	out, err := res.Outcomes[0], res.Errs[0]
	checkFamilyOutcome(rep, stage+"/postheal", p, tree, 0, out, err, res.rec, refSites)
	if err != nil {
		return
	}
	for _, c := range cut {
		po, ok := out.PerObject[c]
		if !ok {
			rep.add(stage, "rejoined object %d has no post-heal result", c)
			continue
		}
		if !po.Completed {
			rep.add(stage, "rejoined object %d did not complete the post-heal run", c)
		}
		if po.Resolved != out.Resolved {
			rep.add(stage, "rejoined object %d resolved %q post-heal, the run resolved %q", c, po.Resolved, out.Resolved)
		}
	}
	checkSums(rep, stage, res.store, expectedSums(p, []int{0}))
}
