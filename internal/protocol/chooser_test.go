package protocol

import (
	"fmt"
	"testing"

	"repro/internal/exception"
	"repro/internal/ident"
	"repro/internal/trace"
)

// buildChooserScenario: n objects, p raisers, chooser group k.
func buildChooserScenario(t *testing.T, n, p, k int) *bus {
	t.Helper()
	b := newBus(t)
	tb := exception.NewBuilder("root")
	for i := 1; i <= n; i++ {
		tb.Add(fmt.Sprintf("E%d", i), "root")
	}
	tree := tb.MustBuild()
	all := make([]ident.ObjectID, n)
	for i := range all {
		all[i] = ident.ObjectID(i + 1)
		e := b.addEngine(all[i])
		e.SetChooserGroup(k)
	}
	f := frameOf(1, []ident.ActionID{1}, tree, all...)
	b.enterAll(f, all...)
	for i := 0; i < p; i++ {
		if ok, _ := b.engines[all[i]].RaiseLocal(fmt.Sprintf("E%d", i+1)); !ok {
			t.Fatalf("raise %d dropped", i)
		}
	}
	return b
}

// TestChooserGroupAllAgree: with k choosers, every participant still runs
// exactly one handler for the same resolved exception.
func TestChooserGroupAllAgree(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			n, p := 5, 3
			b := buildChooserScenario(t, n, p, k)
			b.drain()
			chosen := b.log.FilterKind(trace.EvCommitChosen)
			maxChoosers := k
			if maxChoosers > p {
				maxChoosers = p
			}
			// A would-be chooser that receives another chooser's Commit
			// before reaching R simply adopts it, so between 1 and
			// min(k, P) choosers actually commit.
			if len(chosen) < 1 || len(chosen) > maxChoosers {
				t.Fatalf("choosers = %d, want 1..%d\n%s", len(chosen), maxChoosers, b.log.Dump())
			}
			resolved := chosen[0].Label
			for _, c := range chosen {
				if c.Label != resolved {
					t.Errorf("choosers disagree: %q vs %q", c.Label, resolved)
				}
			}
			for i := 1; i <= n; i++ {
				got := b.handled[ident.ObjectID(i)]
				if len(got) != 1 || got[0] != "A1:"+resolved {
					t.Errorf("O%d handled %v", i, got)
				}
			}
		})
	}
}

// TestChooserGroupConstantFactor: the extra cost of k choosers is at most
// (k-1)(N-1) additional Commit messages — "only ... a constant factor".
func TestChooserGroupConstantFactor(t *testing.T) {
	n, p := 6, 4
	base := PredictMessages(n, p, 0)
	for k := 1; k <= 3; k++ {
		b := buildChooserScenario(t, n, p, k)
		b.drain()
		total := b.log.TotalSends()
		max := base + (k-1)*(n-1)
		if total < base || total > max {
			t.Errorf("k=%d: total = %d, want in [%d, %d] (%s)", k, total, base, max, b.log.CensusString())
		}
		commits := b.log.CountSends(KindCommit)
		if commits%(n-1) != 0 {
			t.Errorf("k=%d: commit count %d is not a whole number of multicasts", k, commits)
		}
	}
}

// TestChooserGroupLargerThanRaisers degrades cleanly to all raisers
// choosing.
func TestChooserGroupLargerThanRaisers(t *testing.T) {
	b := buildChooserScenario(t, 4, 2, 10)
	b.drain()
	chosen := b.log.FilterKind(trace.EvCommitChosen)
	if len(chosen) < 1 || len(chosen) > 2 {
		t.Fatalf("choosers = %d, want 1..2 (all raisers may choose)", len(chosen))
	}
}
