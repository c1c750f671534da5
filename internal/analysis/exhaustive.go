package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// trackedEnums lists the protocol state machines whose switches must be
// exhaustive, keyed by "pkgname.TypeName". The members are discovered from
// the defining package's scope (every package-level constant of the exact
// type), so adding a new state to one of these types makes every
// non-exhaustive switch over it a finding.
var trackedEnums = map[string]bool{
	"protocol.State":     true, // N/X/S/R, §4.2
	"trace.EventKind":    true,
	"atomicobj.TxnState": true,
	"transport.Verdict":  true,
	"core.TransportKind": true,
	"core.NestedPolicy":  true,
}

// kindSet is one family of string message-kind constants. A string switch
// that names any member must cover the whole family.
type kindSet struct {
	label  string   // human-readable family name for diagnostics
	pkg    string   // defining package name
	consts []string // declared constant names
}

var kindSets = []kindSet{
	{
		label: "protocol message kinds",
		pkg:   "protocol",
		consts: []string{
			"KindException", "KindHaveNested", "KindNestedCompleted",
			"KindAck", "KindCommit",
		},
	},
	{
		label: "centralised-baseline message kinds",
		pkg:   "protocol",
		consts: []string{
			"KindCException", "KindCProbe", "KindCStatus", "KindCCommit",
		},
	},
	{
		label:  "conversation-baseline message kinds",
		pkg:    "crbaseline",
		consts: []string{"KindRaise", "KindAck", "KindResolve"},
	},
}

// ExhaustiveAnalyzer flags switches over the protocol's state machines and
// message-kind families that neither cover every member nor panic in their
// default clause. The paper's correctness argument depends on every object
// following the N/X/S/R machine exactly; a silently ignored state is exactly
// the kind of regression a lucky test schedule hides.
var ExhaustiveAnalyzer = &Analyzer{
	Name: "exhaustive",
	Doc: "switches over protocol enums and Kind* message constants must cover " +
		"every member or carry a panicking default",
	Run: runExhaustive,
}

func runExhaustive(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			checkEnumSwitch(pass, sw)
			checkKindSwitch(pass, sw)
			return true
		})
	}
}

// checkEnumSwitch enforces exhaustiveness for switches whose tag is one of
// the tracked named enum types.
func checkEnumSwitch(pass *Pass, sw *ast.SwitchStmt) {
	tv, ok := pass.Info.Types[sw.Tag]
	if !ok {
		return
	}
	pkgName, typeName, ok := namedOf(tv.Type)
	if !ok || !trackedEnums[pkgName+"."+typeName] {
		return
	}
	named := tv.Type
	if ptr, isPtr := named.(*types.Pointer); isPtr {
		named = ptr.Elem()
	}
	defPkg := named.(*types.Named).Obj().Pkg()
	if defPkg == nil {
		return
	}

	// Universe: every package-level constant of the exact type.
	var members []*types.Const
	scope := defPkg.Scope()
	for _, name := range scope.Names() {
		if c, isConst := scope.Lookup(name).(*types.Const); isConst && types.Identical(c.Type(), named) {
			members = append(members, c)
		}
	}
	if len(members) == 0 {
		return
	}

	covered, hasDefault, loud := switchCoverage(pass, sw)
	var missing []string
	for _, m := range members {
		if !covered[m.Val().ExactString()] {
			missing = append(missing, m.Name())
		}
	}
	sort.Strings(missing)
	if len(missing) == 0 {
		return
	}
	if hasDefault && loud {
		return
	}
	pass.Reportf(sw.Switch,
		"switch over %s.%s is missing cases %s (cover every member, panic in default, or annotate //protolint:allow exhaustive)",
		pkgName, typeName, strings.Join(missing, ", "))
}

// checkKindSwitch enforces exhaustiveness for string switches that name a
// Kind* message constant: naming one member of a family commits the switch to
// the whole family.
func checkKindSwitch(pass *Pass, sw *ast.SwitchStmt) {
	tv, ok := pass.Info.Types[sw.Tag]
	if !ok || tv.Type == nil {
		return
	}
	if basic, isBasic := tv.Type.Underlying().(*types.Basic); !isBasic || basic.Info()&types.IsString == 0 {
		return
	}

	// Find the first case constant that belongs to a tracked kind family.
	var set *kindSet
	var defPkg *types.Package
	for _, clause := range caseClauses(sw) {
		for _, e := range clause.List {
			c := constObj(pass.Info, e)
			if c == nil || c.Pkg() == nil {
				continue
			}
			for i := range kindSets {
				ks := &kindSets[i]
				if c.Pkg().Name() != ks.pkg {
					continue
				}
				for _, name := range ks.consts {
					if c.Name() == name {
						set, defPkg = ks, c.Pkg()
						break
					}
				}
				if set != nil {
					break
				}
			}
			if set != nil {
				break
			}
		}
		if set != nil {
			break
		}
	}
	if set == nil {
		return
	}

	covered, hasDefault, loud := switchCoverage(pass, sw)
	var missing []string
	for _, name := range set.consts {
		c, isConst := defPkg.Scope().Lookup(name).(*types.Const)
		if !isConst {
			continue // family member not declared in this (fixture) package
		}
		if !covered[c.Val().ExactString()] {
			missing = append(missing, name)
		}
	}
	if len(missing) == 0 {
		return
	}
	if hasDefault && loud {
		return
	}
	pass.Reportf(sw.Switch,
		"string switch over %s is missing cases %s (cover every member, panic in default, or annotate //protolint:allow exhaustive)",
		set.label, strings.Join(missing, ", "))
}

// switchCoverage collects the constant values named by the switch's cases and
// describes its default clause: whether one exists and whether it is "loud"
// (contains a panic call, making an unhandled member impossible to miss).
func switchCoverage(pass *Pass, sw *ast.SwitchStmt) (covered map[string]bool, hasDefault, loud bool) {
	covered = make(map[string]bool)
	for _, clause := range caseClauses(sw) {
		if clause.List == nil {
			hasDefault = true
			loud = containsPanic(clause.Body)
			continue
		}
		for _, e := range clause.List {
			if tv, ok := pass.Info.Types[e]; ok && tv.Value != nil {
				covered[tv.Value.ExactString()] = true
				// Constants of distinct representations but equal string
				// value (e.g. a typed and an untyped "ACK") compare equal in
				// a switch; normalise string constants through their value.
				if tv.Value.Kind() == constant.String {
					covered[constant.StringVal(tv.Value)] = true
					covered[constant.MakeString(constant.StringVal(tv.Value)).ExactString()] = true
				}
			}
		}
	}
	return covered, hasDefault, loud
}

func caseClauses(sw *ast.SwitchStmt) []*ast.CaseClause {
	out := make([]*ast.CaseClause, 0, len(sw.Body.List))
	for _, s := range sw.Body.List {
		if cc, ok := s.(*ast.CaseClause); ok {
			out = append(out, cc)
		}
	}
	return out
}

// containsPanic reports whether the statement list (recursively) calls the
// panic builtin.
func containsPanic(stmts []ast.Stmt) bool {
	found := false
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
					found = true
					return false
				}
			}
			return !found
		})
	}
	return found
}
