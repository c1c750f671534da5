package scengen

import (
	"fmt"
	"time"

	"repro/internal/crbaseline"
	"repro/internal/exception"
	"repro/internal/ident"
	"repro/internal/transport/conformancetest"
)

// Options tune one oracle run.
type Options struct {
	// Settle bounds the asynchronous protocol fabrics' settle wait
	// (default 10s; the shrinker uses much less).
	Settle time.Duration
	// RunTimeout bounds each full-stack core run (default 20s).
	RunTimeout time.Duration
	// SkipLeak disables the goroutine-leak check — required when several
	// oracle runs share a process concurrently, since each run's transient
	// goroutines would count as the others' leaks.
	SkipLeak bool
}

func (o Options) withDefaults() Options {
	if o.Settle == 0 {
		o.Settle = 10 * time.Second
	}
	if o.RunTimeout == 0 {
		o.RunTimeout = 20 * time.Second
	}
	return o
}

// Divergence is one oracle finding.
type Divergence struct {
	// Stage names the oracle stage that diverged (e.g. "proto/tcp",
	// "core/raw/multi", "crbaseline", "leak").
	Stage string
	// Detail describes the divergence.
	Detail string
}

// Report is the oracle's verdict on one program.
type Report struct {
	Seed        uint64
	Divergences []Divergence
}

// Failed reports whether any stage diverged.
func (r *Report) Failed() bool { return len(r.Divergences) > 0 }

func (r *Report) add(stage, format string, args ...any) {
	r.Divergences = append(r.Divergences, Divergence{Stage: stage, Detail: fmt.Sprintf(format, args...)})
}

func (r *Report) String() string {
	if !r.Failed() {
		return fmt.Sprintf("seed %d: ok", r.Seed)
	}
	out := fmt.Sprintf("seed %d: %d divergence(s)\n", r.Seed, len(r.Divergences))
	for _, d := range r.Divergences {
		out += fmt.Sprintf("  [%s] %s\n", d.Stage, d.Detail)
	}
	return out
}

// Check runs the full differential oracle on one program:
//
//  1. protocol tier — the program's resolution map on the deterministic
//     reference (protocol.Sim) must be reproduced exactly by the
//     Deterministic, Concurrent and TCP fabrics, raises
//     landing under the cross-engine raise barrier;
//  2. CR tier — for every raise site, the reconstructed Campbell–Randell
//     baseline with full reduced trees must converge to the same resolution
//     (full trees mean no domino re-raises, so the algorithms must agree);
//  3. core tier — the full stack (server, dispatchers, transactions) must
//     complete every family with the reference resolutions, the exact
//     atomic-object sums, and — for partition programs — exactly the cut
//     expelled and the participant failure resolved; heal-and-continue
//     programs additionally heal, rejoin the cut via view-synchronous state
//     transfer (repeatedly, when flapping) and demand the rejoined members
//     participate in the post-heal resolution;
//  4. leak — no repository goroutine may outlive the run.
func Check(p *Program, opts Options) *Report {
	opts = opts.withDefaults()
	rep := &Report{Seed: p.Seed}
	if err := p.Validate(); err != nil {
		rep.add("validate", "%v", err)
		return rep
	}
	if err := withinTiming(p); err != nil {
		rep.add("validate", "%v", err)
		return rep
	}
	var leak func() error
	if !opts.SkipLeak {
		leak = conformancetest.LeakCheckErr()
	}

	cp, err := p.ToProto()
	if err != nil {
		rep.add("proto/lower", "%v", err)
		return rep
	}
	ref, err := conformancetest.ReferenceResolutions(cp)
	if err != nil {
		rep.add("proto/reference", "%v", err)
		return rep
	}
	for _, b := range protoBackends() {
		fab := b.make(opts.Settle)
		got, err := conformancetest.FabricResolutions(fab, cp, len(ref))
		fab.Close()
		if err != nil {
			rep.add(b.name, "%v", err)
			continue
		}
		if d := ref.Diff(got); d != "" {
			rep.add(b.name, "resolutions diverge from reference:\n%s", d)
		}
	}

	tree, _ := p.Tree() // p is valid, and Validate built this tree
	checkCR(p, tree, ref, rep)

	switch {
	case p.Partition != nil && p.Partition.Heal:
		checkChurn(p, tree, ref, opts, rep)
	case p.Partition != nil:
		checkPartition(p, tree, ref, opts, rep)
	default:
		checkCore(p, tree, ref, opts, rep)
	}

	if leak != nil {
		if err := leak(); err != nil {
			rep.add("leak", "%v", err)
		}
	}
	return rep
}

// withinTiming holds a program to what the oracle's timing assumes beyond
// Validate: every raise lands within 50 ms (the linger outlasts it), the cut
// within 200 ms, and a flapping partition repeats at most twice. The
// generator stays inside these bounds; the presets need not.
func withinTiming(p *Program) error {
	for fi, fam := range p.Families {
		for _, r := range fam.Raises {
			if r.DelayMS > 50 {
				return fmt.Errorf("scengen: family %d raise delay %dms out of [0, 50]", fi, r.DelayMS)
			}
		}
	}
	if p.Partition != nil && p.Partition.DelayMS > 200 {
		return fmt.Errorf("scengen: partition delay %dms out of [0, 200]", p.Partition.DelayMS)
	}
	if p.Partition != nil && p.Partition.Flap > 2 {
		return fmt.Errorf("scengen: partition flap %d out of [0, 2]", p.Partition.Flap)
	}
	return nil
}

// checkCR holds the reconstructed 1986 baseline to the reference: for every
// raise site, CR participants with FULL reduced trees (everyone handles
// everything, so no domino re-raises can widen the raise set) must converge
// on exactly the resolution the new algorithm committed there.
func checkCR(p *Program, tree *exception.Tree, ref conformancetest.Resolutions, rep *Report) {
	full, err := exception.NewReducedTree(tree, tree.Names()...)
	if err != nil {
		rep.add("crbaseline", "full reduced tree: %v", err)
		return
	}
	for fi := range p.Families {
		fam := &p.Families[fi]
		for _, site := range fam.RaiseSites() {
			raises := fam.raisersAt(site)
			if len(raises) == 0 {
				continue
			}
			var parts []crbaseline.Participant
			for _, m := range fam.Actions[site].Members {
				parts = append(parts, crbaseline.Participant{ID: ident.ObjectID(m), Reduced: full})
			}
			initial := make(map[ident.ObjectID]string, len(raises))
			for _, r := range raises {
				initial[ident.ObjectID(r.Obj)] = r.Exc
			}
			res, err := crbaseline.Run(crbaseline.Config{Tree: tree, Participants: parts}, initial)
			if err != nil {
				rep.add("crbaseline", "family %d site %d: %v", fi, site, err)
				continue
			}
			want := ref[conformancetest.ResolutionKey{
				Family: fi, Obj: ident.ObjectID(raises[0].Obj), Action: actionID(fi, site),
			}]
			if res.Final != want {
				rep.add("crbaseline", "family %d site %d: CR converged on %q, reference committed %q", fi, site, res.Final, want)
			}
		}
	}
}
