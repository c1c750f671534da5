package conformancetest

import (
	"fmt"
	"testing"

	"repro/internal/exception"
	"repro/internal/ident"
)

// RunResolutionEquivalence drives the paper's resolution protocol itself over
// a fabric and checks that the backend commits exactly the resolutions the
// Deterministic reference commits, across the §4.4 (N, P, Q) grid. The
// message-level suite (Run) proves deliveries arrive intact and in order;
// this suite proves the property those guarantees exist for: the protocol's
// outcome does not depend on which fabric carries it, nor on how a concurrent
// backend interleaves or batches deliveries. Why the strict comparison is
// sound is argued at the top of program.go.
func RunResolutionEquivalence(t *testing.T, factory Factory) {
	grid := []struct{ n, p, q int }{
		{2, 1, 0}, {3, 2, 0}, {4, 1, 3}, {4, 4, 0}, {5, 2, 2}, {8, 3, 4}, {8, 8, 0},
	}
	for _, c := range grid {
		c := c
		t.Run(fmt.Sprintf("N=%d,P=%d,Q=%d", c.n, c.p, c.q), func(t *testing.T) {
			runEquivalence(t, factory, GridProgram(c.n, c.p, c.q, 1))
		})
	}
}

// RunMultiplexedEquivalence holds a backend to the multiplexed-runtime
// contract: K independent action families interleave over ONE fabric — every
// object registered once, its deliveries demultiplexed to per-family engines
// by Message.Action — and each family must commit exactly the resolutions the
// Deterministic reference commits for it when run alone. GridProgram rotates
// the raised exceptions per family, so adjacent single-raiser families resolve
// *different* exceptions: a frame delivered under the wrong action tag is
// either unroutable (an execution error) or skews a family away from its solo
// baseline. This is the transport-level counterpart of the core server's
// zero-leakage guarantee.
func RunMultiplexedEquivalence(t *testing.T, factory Factory) {
	grid := []struct{ n, p, q, k int }{
		{2, 1, 0, 6}, {4, 1, 3, 4}, {4, 4, 0, 8},
	}
	for _, c := range grid {
		c := c
		t.Run(fmt.Sprintf("N=%d,P=%d,Q=%d,K=%d", c.n, c.p, c.q, c.k), func(t *testing.T) {
			runEquivalence(t, factory, GridProgram(c.n, c.p, c.q, c.k))
		})
	}
}

// runEquivalence runs one program on the reference and on a fresh fabric and
// reports every (family, object, action) commit on which they differ.
func runEquivalence(t *testing.T, factory Factory, prog *Program) {
	defer LeakCheck(t)()
	want, err := ReferenceResolutions(prog)
	if err != nil {
		t.Fatal(err)
	}
	fab := factory(t, Options{})
	defer fab.Close()
	got, err := FabricResolutions(fab, prog, len(want))
	if err != nil {
		t.Fatal(err)
	}
	if diff := want.Diff(got); diff != "" {
		t.Error(diff)
	}
}

// GridProgram builds the §4.4 scenario shape as a Program: k families, each
// over objects O1..On, on a flat tree with one exception E1..En under the
// root. Family f is rooted at action f*1000+1; O1..Op raise concurrently
// there, raiser i raising E((i+f) mod n + 1), and the next q objects each sit
// in a singleton nested action root+100+i.
func GridProgram(n, p, q, k int) *Program {
	tb := exception.NewBuilder("root")
	for i := 1; i <= n; i++ {
		tb.Add(fmt.Sprintf("E%d", i), "root")
	}
	all := make([]ident.ObjectID, n)
	for i := range all {
		all[i] = ident.ObjectID(i + 1)
	}
	prog := &Program{Tree: tb.MustBuild(), Families: make([]ProgramFamily, k)}
	for f := range prog.Families {
		root := ident.ActionID(f*1000 + 1)
		fam := &prog.Families[f]
		fam.Actions = append(fam.Actions, ProgramAction{ID: root, Parent: -1, Members: all})
		for i := 0; i < q; i++ {
			fam.Actions = append(fam.Actions, ProgramAction{
				ID: root + ident.ActionID(100+i), Parent: 0, Members: all[p+i : p+i+1],
			})
		}
		for i := 0; i < p; i++ {
			fam.Raises = append(fam.Raises, ProgramRaise{
				Obj: all[i], Exc: fmt.Sprintf("E%d", (i+f)%n+1),
			})
		}
	}
	return prog
}
