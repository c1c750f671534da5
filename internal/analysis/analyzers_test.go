package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/antest"
)

func TestExhaustive(t *testing.T) {
	antest.Run(t, "testdata", analysis.ExhaustiveAnalyzer,
		"exhaustive/protocol", "exhaustive/engineuser")
}

func TestMsgKind(t *testing.T) {
	antest.Run(t, "testdata", analysis.MsgKindAnalyzer, "msgkind/harness")
}

func TestDeterminism(t *testing.T) {
	antest.Run(t, "testdata", analysis.DeterminismAnalyzer,
		"determinism/protocol", "determinism/netsim", "determinism/transport")
}

func TestSeam(t *testing.T) {
	antest.Run(t, "testdata", analysis.SeamAnalyzer,
		"seam/app", "seam/transport", "seam/netsim")
}

func TestTimeSeam(t *testing.T) {
	antest.Run(t, "testdata", analysis.TimeSeamAnalyzer,
		"timeseam/membership", "timeseam/group", "timeseam/conformancetest", "timeseam/app",
		"timeseam/protocol", "timeseam/transport")
}

func TestLockSend(t *testing.T) {
	antest.Run(t, "testdata", analysis.LockSendAnalyzer, "locksend/fabric")
}

func TestLockOrder(t *testing.T) {
	antest.Run(t, "testdata", analysis.LockOrderAnalyzer,
		"lockorder/ab", "lockorder/base", "lockorder/mid", "lockorder/top")
}

func TestResetCheck(t *testing.T) {
	antest.Run(t, "testdata", analysis.ResetCheckAnalyzer,
		"resetcheck/pool", "resetcheck/protocol")
}

func TestNoAlloc(t *testing.T) {
	antest.Run(t, "testdata", analysis.NoAllocAnalyzer, "noalloc/hot")
}

// TestBareSuppression pins the suppressor bug fix: a //protolint:allow with
// no reason text must suppress nothing and be reported itself.
func TestBareSuppression(t *testing.T) {
	const src = `package protocol

type State int

const (
	StateNormal State = iota + 1
	StateExceptional
	StateSuspended
	StateReady
)

func describe(s State) string {
	//protolint:allow exhaustive
	switch s {
	case StateNormal:
		return "N"
	}
	return ""
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "protocol.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, err := (&types.Config{}).Check("protocol", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	diags, _ := analysis.Run(fset, []*ast.File{f}, pkg, info,
		[]*analysis.Analyzer{analysis.ExhaustiveAnalyzer}, nil)
	if len(diags) != 2 {
		t.Fatalf("got %d findings, expected 2 (bare-allow report + unsuppressed finding): %v", len(diags), diags)
	}
	var sawBare, sawFinding bool
	for _, d := range diags {
		if d.Suppressed {
			t.Errorf("finding suppressed by a bare allow: %v", d)
		}
		switch {
		case strings.Contains(d.Message, "missing its reason"):
			sawBare = true
		case strings.Contains(d.Message, "missing cases"):
			sawFinding = true
		}
	}
	if !sawBare || !sawFinding {
		t.Errorf("expected a bare-allow report and the original finding, got: %v", diags)
	}
}
