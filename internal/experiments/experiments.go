package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/crbaseline"
	"repro/internal/exception"
	"repro/internal/ident"
	"repro/internal/protocol"
	"repro/internal/scenario"
	"repro/internal/scengen"
	"repro/internal/trace"
)

// simCase runs the deterministic protocol fabric for (n, p, q) and returns
// the exact message total. Single-member nested actions are used for the Q
// objects, exactly as in the §4.4 parameterisation.
func simCase(n, p, q int) (int, error) {
	sim := protocol.NewSim()
	tb := exception.NewBuilder("root")
	for i := 1; i <= n; i++ {
		tb.Add(fmt.Sprintf("E%d", i), "root")
	}
	tree := tb.MustBuild()
	all := make([]ident.ObjectID, n)
	for i := range all {
		all[i] = ident.ObjectID(i + 1)
		sim.AddEngine(all[i])
	}
	if err := sim.EnterAll(protocol.Frame{
		Action: 1, Path: []ident.ActionID{1}, Members: all, Tree: tree,
	}, all...); err != nil {
		return 0, err
	}
	for i := 0; i < q; i++ {
		obj := all[p+i]
		na := ident.ActionID(100 + i)
		if err := sim.EnterAll(protocol.Frame{
			Action: na, Path: []ident.ActionID{1, na},
			Members: []ident.ObjectID{obj}, Tree: tree,
		}, obj); err != nil {
			return 0, err
		}
	}
	for i := 0; i < p; i++ {
		if _, err := sim.Engines[all[i]].RaiseLocal(fmt.Sprintf("E%d", i+1)); err != nil {
			return 0, err
		}
	}
	if err := sim.Drain(10_000_000); err != nil {
		return 0, err
	}
	return sim.Log.TotalSends(), nil
}

// E1 reproduces §4.4 case 1: one exception, no nested actions, 3(N-1)
// messages, alongside a full-stack cross-check over the simulated network.
func E1() (Table, error) {
	t := Table{
		ID:     "E1",
		Title:  "case 1 — one exception, no nesting: 3(N-1) messages",
		Header: []string{"N", "paper 3(N-1)", "measured(protocol)", "measured(full stack)", "match"},
	}
	for _, n := range []int{2, 3, 4, 8, 16, 32, 64} {
		want := 3 * (n - 1)
		got, err := simCase(n, 1, 0)
		if err != nil {
			return t, err
		}
		prog, err := scengen.Grid(n, 1, 0, 0, 0, false)
		if err != nil {
			return t, err
		}
		res, err := scengen.Run(prog, scengen.Config{})
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			itoa(n), itoa(want), itoa(got), itoa(res.Total),
			boolMark(got == want && res.Total == want),
		})
	}
	return t, nil
}

// E2 reproduces §4.4 case 2: one exception, all other objects nested,
// 3N(N-1) messages.
func E2() (Table, error) {
	t := Table{
		ID:     "E2",
		Title:  "case 2 — one exception, all others nested: 3N(N-1) messages",
		Header: []string{"N", "paper 3N(N-1)", "measured", "match"},
	}
	for _, n := range []int{2, 3, 4, 8, 16, 32} {
		want := 3 * n * (n - 1)
		got, err := simCase(n, 1, n-1)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{itoa(n), itoa(want), itoa(got), boolMark(got == want)})
	}
	return t, nil
}

// E3 reproduces §4.4 case 3: all N objects raise simultaneously,
// (N-1)(2N+1) messages.
func E3() (Table, error) {
	t := Table{
		ID:     "E3",
		Title:  "case 3 — all N raise simultaneously: (N-1)(2N+1) messages",
		Header: []string{"N", "paper (N-1)(2N+1)", "measured", "match"},
	}
	for _, n := range []int{2, 3, 4, 8, 16, 32, 64} {
		want := (n - 1) * (2*n + 1)
		got, err := simCase(n, n, 0)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{itoa(n), itoa(want), itoa(got), boolMark(got == want)})
	}
	return t, nil
}

// E4 sweeps the general formula (N-1)(2P+3Q+1) over a grid.
func E4() (Table, error) {
	t := Table{
		ID:     "E4",
		Title:  "general formula (N-1)(2P+3Q+1) over a (N,P,Q) grid",
		Header: []string{"N", "P", "Q", "paper", "measured", "match"},
	}
	for _, n := range []int{3, 5, 8} {
		for p := 1; p <= n; p += 2 {
			for q := 0; q <= n-p; q += 2 {
				want := protocol.PredictMessages(n, p, q)
				got, err := simCase(n, p, q)
				if err != nil {
					return t, err
				}
				t.Rows = append(t.Rows, []string{
					itoa(n), itoa(p), itoa(q), itoa(want), itoa(got), boolMark(got == want),
				})
			}
		}
	}
	return t, nil
}

// E5 compares the new algorithm with the reconstructed CR baseline on the
// paper's domino scenario (§3.3/§4.4): chain tree of depth 2N, alternating
// reduced trees, one exception raised.
func E5() (Table, error) {
	t := Table{
		ID:    "E5",
		Title: "new O(N²) algorithm vs Campbell–Randell O(N³) baseline (domino scenario)",
		Header: []string{
			"N", "CR messages", "CR rounds",
			"new same-scenario 3(N-1)", "new worst-case (N-1)(2N+1)", "CR / new(worst)",
		},
		Notes: []string{
			"CR scenario: chain tree of depth 2N, odd/even reduced trees, one raise — each round's resolution leaves half the participants without a handler, forcing a re-raise (the §3.3 domino effect).",
			"the new algorithm needs a single exchange because every participant handles every declared exception.",
		},
	}
	for _, n := range []int{4, 8, 16, 32, 64} {
		cfg, err := crbaseline.DominoChainConfig(2*n, n)
		if err != nil {
			return t, err
		}
		deepest := fmt.Sprintf("e%d", 2*n)
		res, err := crbaseline.Run(cfg, map[ident.ObjectID]string{ident.ObjectID(n): deepest})
		if err != nil {
			return t, err
		}
		same := protocol.PredictMessages(n, 1, 0)
		worst := protocol.PredictMessages(n, n, 0)
		t.Rows = append(t.Rows, []string{
			itoa(n), itoa(res.Messages), itoa(res.Rounds),
			itoa(same), itoa(worst),
			fmt.Sprintf("%.1fx", float64(res.Messages)/float64(worst)),
		})
	}
	return t, nil
}

// E6 verifies the zero-overhead claim: no protocol messages without an
// exception.
func E6() (Table, error) {
	t := Table{
		ID:     "E6",
		Title:  "no overhead when no exception is raised",
		Header: []string{"N", "writes/object", "protocol msgs", "match (want 0)"},
	}
	for _, n := range []int{2, 4, 16, 64} {
		prog, err := scengen.NoException(n)
		if err != nil {
			return t, err
		}
		res, err := scengen.Run(prog, scengen.Config{})
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{itoa(n), "4", itoa(res.Total), boolMark(res.Total == 0)})
	}
	return t, nil
}

// E7 contrasts Figure 1's two nested-action strategies with a belated
// participant: abort terminates, wait times out.
func E7() (Table, error) {
	t := Table{
		ID:     "E7",
		Title:  "Figure 1 — abort-nested vs wait-for-nested with a belated participant",
		Header: []string{"policy", "completed", "resolved", "elapsed", "timed out"},
		Notes: []string{
			"scenario: O1 raises in the containing action while O2 sits in a nested action waiting for belated O3.",
			"the paper (§2.2) prefers abortion: a process 'expected to enter the nested action ... will never be able to, so other processes in the nested action would wait forever'.",
		},
	}
	for _, policy := range []core.NestedPolicy{core.AbortNestedActions, core.WaitForNestedActions} {
		name := "abort (Fig 1b)"
		timeout := 30 * time.Second
		if policy == core.WaitForNestedActions {
			name = "wait (Fig 1a)"
			timeout = 500 * time.Millisecond
		}
		start := time.Now()
		out, err := scenario.RunBelated(policy, timeout)
		elapsed := time.Since(start).Round(time.Millisecond)
		timedOut := err != nil
		t.Rows = append(t.Rows, []string{
			name, boolMark(out.Completed), out.Resolved, elapsed.String(), boolMark(timedOut),
		})
	}
	return t, nil
}

// E8 reproduces §4.3 Example 1 and reports the exact message census.
func E8() (Table, error) {
	sim := protocol.NewSim()
	tree := exception.NewBuilder("universal").
		Add("E1", "universal").Add("E2", "universal").MustBuild()
	all := []ident.ObjectID{1, 2, 3}
	for _, o := range all {
		sim.AddEngine(o)
	}
	if err := sim.EnterAll(protocol.Frame{
		Action: 1, Path: []ident.ActionID{1}, Members: all, Tree: tree,
	}, all...); err != nil {
		return Table{}, err
	}
	if _, err := sim.Engines[1].RaiseLocal("E1"); err != nil {
		return Table{}, err
	}
	if _, err := sim.Engines[2].RaiseLocal("E2"); err != nil {
		return Table{}, err
	}
	if err := sim.Drain(100000); err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "E8",
		Title:  "Example 1 (§4.3) — O1 raises E1, O2 raises E2 concurrently in A1",
		Header: []string{"quantity", "paper", "measured", "match"},
	}
	census := sim.Log.Census()
	chooser := ""
	for _, ev := range sim.Log.Events() {
		if ev.Kind == trace.EvCommitChosen {
			chooser = ev.Object.String()
		}
	}
	handled := sim.Handled[3]
	rows := []struct {
		name    string
		paper   string
		measure string
	}{
		{"chooser (biggest raiser)", "O2", chooser},
		{"Exception messages", "4", itoa(census[protocol.KindException])},
		{"ACK messages", "4", itoa(census[protocol.KindAck])},
		{"Commit messages", "2", itoa(census[protocol.KindCommit])},
		{"total", "10", itoa(sim.Log.TotalSends())},
		{"O3 handler runs", "1", itoa(len(handled))},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.name, r.paper, r.measure, boolMark(r.paper == r.measure)})
	}
	return t, nil
}

// E9 reproduces §4.3 Example 2 / Figure 4 and checks its distinctive
// behaviours.
func E9() (Table, error) {
	sim := protocol.NewSim()
	tree := exception.NewBuilder("universal").
		Add("E1", "universal").Add("E2", "universal").Add("E3", "universal").MustBuild()
	all := []ident.ObjectID{1, 2, 3, 4}
	for _, o := range all {
		sim.AddEngine(o)
	}
	a1 := protocol.Frame{Action: 1, Path: []ident.ActionID{1}, Members: all, Tree: tree}
	a2 := protocol.Frame{Action: 2, Path: []ident.ActionID{1, 2}, Members: []ident.ObjectID{2, 3, 4}, Tree: tree}
	a3 := protocol.Frame{Action: 3, Path: []ident.ActionID{1, 2, 3}, Members: []ident.ObjectID{2, 3}, Tree: tree}
	if err := sim.EnterAll(a1, all...); err != nil {
		return Table{}, err
	}
	if err := sim.EnterAll(a2, 2, 3, 4); err != nil {
		return Table{}, err
	}
	if err := sim.EnterAll(a3, 2); err != nil { // O3 belated
		return Table{}, err
	}
	sim.SetAbortSignal(2, 1, "E3")
	if _, err := sim.Engines[2].RaiseLocal("E2"); err != nil {
		return Table{}, err
	}
	if _, err := sim.Engines[1].RaiseLocal("E1"); err != nil {
		return Table{}, err
	}
	if err := sim.Drain(100000); err != nil {
		return Table{}, err
	}

	chooser, chooserLE := "", ""
	for _, ev := range sim.Log.Events() {
		if ev.Kind == trace.EvCommitChosen {
			chooser = ev.Object.String()
			chooserLE = ev.Detail
		}
	}
	cleaned := "no"
	for _, ev := range sim.Log.Events() {
		if ev.Label == "cleanup-nested-message" && ev.Object == 3 {
			cleaned = "yes"
		}
	}
	allHandled := true
	for _, o := range all {
		if len(sim.Handled[o]) != 1 || sim.Handled[o][0] != "A1:universal" {
			allHandled = false
		}
	}
	t := Table{
		ID:     "E9",
		Title:  "Example 2 (§4.3, Fig. 4) — nested resolution eliminated by containing action",
		Header: []string{"behaviour", "paper", "measured", "match"},
		Notes:  []string{fmt.Sprintf("chooser's LE list: %s", chooserLE)},
	}
	le := "E1+E3, not E2"
	leOK := contains(chooserLE, "E1") && contains(chooserLE, "E3") && !contains(chooserLE, "E2")
	rows := []struct{ name, paper, measured string }{
		{"chooser", "O2", chooser},
		{"resolution level", "A1", "A1"},
		{"LE at chooser", le, map[bool]string{true: le, false: chooserLE}[leOK]},
		{"O3 cleans up O2's Exception(A3)", "yes", cleaned},
		{"all four run the same A1 handler", "yes", boolMark(allHandled)},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.name, r.paper, r.measured, boolMark(r.paper == r.measured)})
	}
	return t, nil
}

// E10 verifies the Fig. 3 obligations: abortion handlers run innermost-first
// and only the direct child's signal reaches the resolution level.
func E10() (Table, error) {
	sim := protocol.NewSim()
	tree := exception.ChainTree(6)
	all := []ident.ObjectID{1, 2}
	for _, o := range all {
		sim.AddEngine(o)
	}
	if err := sim.EnterAll(protocol.Frame{
		Action: 1, Path: []ident.ActionID{1}, Members: all, Tree: tree,
	}, all...); err != nil {
		return Table{}, err
	}
	// O2 descends A2 then A3.
	if err := sim.EnterAll(protocol.Frame{
		Action: 2, Path: []ident.ActionID{1, 2}, Members: []ident.ObjectID{2}, Tree: tree,
	}, 2); err != nil {
		return Table{}, err
	}
	if err := sim.EnterAll(protocol.Frame{
		Action: 3, Path: []ident.ActionID{1, 2, 3}, Members: []ident.ObjectID{2}, Tree: tree,
	}, 2); err != nil {
		return Table{}, err
	}
	sim.SetAbortSignal(2, 1, "e4") // signalled by A2 (direct child of A1)
	if _, err := sim.Engines[1].RaiseLocal("e6"); err != nil {
		return Table{}, err
	}
	if err := sim.Drain(100000); err != nil {
		return Table{}, err
	}
	// Abortion order: the trace must show A3 aborted before A2 (EvAbort
	// events in innermost-first order).
	order := ""
	for _, ev := range sim.Log.Events() {
		if ev.Kind == trace.EvAbort && ev.Object == 2 {
			if order != "" {
				order += ","
			}
			order += ev.Action.String()
		}
	}
	resolved := ""
	for _, ev := range sim.Log.Events() {
		if ev.Kind == trace.EvCommitChosen {
			resolved = ev.Label
		}
	}
	t := Table{
		ID:     "E10",
		Title:  "Figure 3 — abortion order and signal filtering in a nested chain",
		Header: []string{"behaviour", "paper", "measured", "match"},
	}
	rows := []struct{ name, paper, measured string }{
		{"abortion order (innermost first)", "A3,A2", order},
		{"signal kept", "from direct child only (e4 joins LE)", map[bool]string{
			true:  "from direct child only (e4 joins LE)",
			false: "resolved=" + resolved,
		}[resolved == "e4"]},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.name, r.paper, r.measured, boolMark(r.paper == r.measured)})
	}
	return t, nil
}

// E11 shows the §3.3 domino effect on the exact 8-exception chain.
func E11() (Table, error) {
	cfg, err := crbaseline.DominoChainConfig(8, 2)
	if err != nil {
		return Table{}, err
	}
	res, err := crbaseline.Run(cfg, map[ident.ObjectID]string{2: "e8"})
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "E11",
		Title:  "§3.3 domino effect — chain tree e1..e8, odd/even reduced trees, CR algorithm",
		Header: []string{"quantity", "paper", "measured", "match"},
	}
	seq := ""
	for i, e := range res.RaiseSequence {
		if i > 0 {
			seq += ","
		}
		seq += e
	}
	rows := []struct{ name, paper, measured string }{
		{"raise sequence", "e8,e7,e6,e5,e4,e3,e2,e1", seq},
		{"final exception", "e1 (the root)", map[bool]string{true: "e1 (the root)", false: res.Final}[res.Final == "e1"]},
		{"rounds", "8", itoa(res.Rounds)},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.name, r.paper, r.measured, boolMark(r.paper == r.measured)})
	}
	return t, nil
}

// E12 contrasts forward and backward recovery over atomic objects (Fig. 2).
func E12() (Table, error) {
	fwd, err := scenario.RunForwardRecovery()
	if err != nil {
		return Table{}, err
	}
	bwd, err := scenario.RunBackwardRecovery()
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "E12",
		Title:  "Figure 2 — forward vs backward recovery of external atomic objects",
		Header: []string{"mode", "attempts", "final state", "expected", "match"},
	}
	t.Rows = append(t.Rows, []string{
		"forward (handler repairs)", "1", fwd.FinalState, "repaired", boolMark(fwd.FinalState == "repaired"),
	})
	t.Rows = append(t.Rows, []string{
		"backward (abort+alternate)", itoa(bwd.Attempts), bwd.FinalState, "alternate", boolMark(bwd.FinalState == "alternate"),
	})
	return t, nil
}

// E13 measures resolution latency versus nesting depth: the delay the paper
// predicts from executing abortion handlers through the chain ("the proposed
// algorithm may suffer some delays because of the execution of abortion
// handlers in nested actions").
func E13() (Table, error) {
	t := Table{
		ID:     "E13",
		Title:  "resolution latency vs nesting depth (abortion-handler delays)",
		Header: []string{"depth", "N", "resolution latency", "messages"},
		Notes: []string{
			"one-way network latency 200µs, 2ms of work per abortion handler; O1 raises at the top while O2 and O3 sit `depth` actions deep.",
			"latency grows linearly with depth because each popped nested action runs its abortion handler before NestedCompleted is sent — 'levels of nesting cannot be estimated in any way'.",
		},
	}
	const raiseDelay = 50 * time.Millisecond
	for _, depth := range []int{1, 2, 4, 8, 16} {
		prog, err := scengen.Grid(3, 1, 2, depth, raiseDelay, false)
		if err != nil {
			return t, err
		}
		res, err := scengen.Run(prog, scengen.Config{Latency: 200 * time.Microsecond})
		if err != nil {
			return t, err
		}
		lat := res.Elapsed - raiseDelay
		if lat < 0 {
			lat = 0
		}
		t.Rows = append(t.Rows, []string{
			itoa(depth), "3", lat.Round(time.Millisecond).String(), itoa(res.Total),
		})
	}
	return t, nil
}

// E14 is the §4.5 ablation: the centralised resolution variant (meta-object
// style, a designated manager resolves) versus the paper's decentralised
// algorithm, by message count. The centralised exchange is linear in N even
// when every object raises, but adds two hops of latency and a single point
// of failure — the reasons the paper decentralises.
func E14() (Table, error) {
	t := Table{
		ID:    "E14",
		Title: "ablation — centralised (manager) vs decentralised resolution, message counts",
		Header: []string{
			"N", "P", "centralised measured", "centralised P+3(N-1)",
			"decentralised (N-1)(2P+1)", "match",
		},
		Notes: []string{
			"the decentralised algorithm is the paper's contribution; §4.5 notes a meta-object implementation 'would allow the dynamic change of different resolution algorithms (e.g. centralised or decentralised)'.",
		},
	}
	for _, n := range []int{4, 8, 16} {
		for _, p := range []int{1, n - 1} {
			tb := exception.NewBuilder("root")
			for i := 1; i <= n; i++ {
				tb.Add(fmt.Sprintf("E%d", i), "root")
			}
			members := make([]ident.ObjectID, n)
			for i := range members {
				members[i] = ident.ObjectID(i + 1)
			}
			cs, err := protocol.NewCentralSim(tb.MustBuild(), members)
			if err != nil {
				return t, err
			}
			for i := 0; i < p; i++ {
				// Raisers are non-manager objects (worst case for messages).
				if _, err := cs.Raise(members[n-1-i], fmt.Sprintf("E%d", n-i)); err != nil {
					return t, err
				}
			}
			if err := cs.Drain(1_000_000); err != nil {
				return t, err
			}
			got := cs.Log.TotalSends()
			want := protocol.PredictCentralMessages(n, p)
			t.Rows = append(t.Rows, []string{
				itoa(n), itoa(p), itoa(got), itoa(want),
				itoa(protocol.PredictMessages(n, p, 0)), boolMark(got == want),
			})
		}
	}
	return t, nil
}

// All runs every experiment in order.
func All() ([]Table, error) {
	funcs := []func() (Table, error){
		E1, E2, E3, E4, E5, E6, E7, E8, E9, E10, E11, E12, E13, E14,
	}
	out := make([]Table, 0, len(funcs))
	for _, f := range funcs {
		tbl, err := f()
		if err != nil {
			return out, fmt.Errorf("%s: %w", tbl.ID, err)
		}
		out = append(out, tbl)
	}
	return out, nil
}

// ByID returns the experiment with the given id.
func ByID(id string) (Table, error) {
	m := map[string]func() (Table, error){
		"e1": E1, "e2": E2, "e3": E3, "e4": E4, "e5": E5, "e6": E6, "e7": E7,
		"e8": E8, "e9": E9, "e10": E10, "e11": E11, "e12": E12, "e13": E13, "e14": E14,
	}
	f, ok := m[id]
	if !ok {
		return Table{}, fmt.Errorf("experiments: unknown id %q", id)
	}
	return f()
}

func contains(haystack, needle string) bool {
	return strings.Contains(haystack, needle)
}
