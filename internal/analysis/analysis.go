// Package analysis is protolint's home: a family of custom static analyzers
// that mechanically enforce the repository's protocol invariants — the
// properties the paper's correctness argument rests on but which, before this
// package, were only checked dynamically (tests, -race runs, AllocsPerRun
// gates and protocol.Explore).
//
// The analyzers are:
//
//   - exhaustive:  every switch over a protocol enum (protocol.State,
//     trace.EventKind, atomicobj.TxnState, transport.Verdict,
//     core.TransportKind/NestedPolicy) and every string switch over the
//     Kind* message constants covers all members or panics in default.
//   - msgkind:     message-kind and census-key string literals outside the
//     kind-defining packages must be declared kind names, so measured
//     counts keep lining up with the paper's §4.4 tables. The universe is
//     read from the Kind* string constants of the package and its
//     dependencies, carried transitively by a package fact.
//   - determinism: packages reachable from protocol.Explore may not draw
//     from the global math/rand source or emit messages/trace events while
//     ranging over a map.
//   - seam:        outside internal/transport and internal/netsim, no raw
//     message channels or netsim endpoint use — cross-object messaging
//     goes through transport.Transport.
//   - timeseam:    the clock-seam packages (netsim, membership, transport,
//     core, fifo, group) and the packages behind protocol.Explore
//     (protocol, exception, trace, wire, ident) arm every timer through
//     vclock.Clock — no direct time.Now/Sleep/After/NewTimer/NewTicker — so
//     an injected vclock.Virtual puts whole partition/churn scenarios on
//     virtual time and a replayed schedule reads no wall clock.
//   - locksend:    no channel send or blocking delivery call (including
//     SendTagged) while holding a sync.Mutex/RWMutex; it reports from
//     lockorder's held-lock walk.
//   - lockorder:   the lock-acquisition graph across all analyzed packages
//     (which mutex class is held when another is acquired, propagated
//     through exported-function facts) must be acyclic — a cycle is a
//     static deadlock.
//   - resetcheck:  pool-recycled types (anything passed to sync.Pool.Put,
//     or carrying a Reset method) must assign or clear every struct field
//     in Reset, so a newly added field cannot leak state across pooled
//     sessions.
//   - noalloc:     functions annotated //caa:noalloc may not contain
//     allocating constructs (escaping composite literals, capturing
//     closures, interface boxing, fmt calls, un-presized append/make,
//     string<->[]byte conversions), turning the AllocsPerRun bench gates
//     into build-time errors.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, diagnostics, facts, testdata fixtures) but is built on the standard
// library only, so the module stays dependency-free. cmd/protolint adapts the
// suite to the `go vet -vettool` protocol and serializes each package's
// exported facts (see facts.go) into the vetx cache slot the go command
// maintains per package, so cross-package analyzers see their dependencies'
// summaries without re-analyzing them.
//
// A finding is suppressed by a comment of the form
//
//	//protolint:allow <analyzer> <reason>
//
// on the flagged line or the line directly above it. The reason is mandatory:
// a bare "//protolint:allow <analyzer>" suppresses nothing and is itself
// reported, so reviewers always see why the rule does not apply. An allow
// that suppresses no finding of its analyzer is reported too, so an excuse
// does not outlive the code it excused. Suppressed findings are retained
// (marked Suppressed, with the reason) so the -json driver output can surface
// them.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow comments.
	Name string
	// Doc is a one-paragraph description of the rule.
	Doc string
	// Run performs the check, reporting findings through the pass.
	Run func(*Pass)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Suppressed marks a finding covered by a reasoned //protolint:allow
	// comment; SuppressReason carries the comment's justification. Suppressed
	// findings do not fail the build but are surfaced by `protolint -json`.
	Suppressed     bool
	SuppressReason string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one typechecked package through one analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Imported holds the fact sets of previously analyzed packages, keyed by
	// import path. Nil when the driver has no facts (a fresh cache).
	Imported FactStore

	analyzer *Analyzer
	diags    *[]Diagnostic
	exported *FactSet
	allowed  map[string]map[int]*allow // filename -> line -> this analyzer's allow there
}

// allow is one reasoned //protolint:allow comment, as it applies to one
// analyzer.
type allow struct {
	analyzer string
	pos      token.Position
	reason   string
	used     bool // it suppressed a finding
}

// PkgName returns the package's declared name (not its import path). The
// analyzers match repository packages by name so that the same rules apply to
// the real tree and to the self-contained fixtures under testdata/src.
func (p *Pass) PkgName() string { return p.Pkg.Name() }

// Reportf records a finding. A reasoned allow comment on the same or the
// preceding line marks it suppressed instead of dropping it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	d := Diagnostic{
		Analyzer: p.analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	}
	if lines := p.allowed[position.Filename]; lines != nil {
		a := lines[position.Line]
		if a == nil {
			a = lines[position.Line-1]
		}
		if a != nil {
			a.used = true
			d.Suppressed, d.SuppressReason = true, a.reason
		}
	}
	*p.diags = append(*p.diags, d)
}

// InTestFile reports whether pos lies in a _test.go file. Some analyzers
// (determinism, seam, locksend) check only production code: tests may use
// timers, scratch channels and locks freely without affecting schedule replay.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Run applies the given analyzers to one typechecked package, resolving
// cross-package facts from imported, and returns the findings sorted by
// position (suppressed ones included, marked) together with the package's
// exported fact set.
//
// Once every analyzer has reported, an allow naming one of them that
// suppressed none of its findings is itself a finding: the code it excused has
// moved or gone. An allow naming an analyzer that did not run is not judged.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer, imported FactStore) ([]Diagnostic, *FactSet) {
	var diags []Diagnostic
	exported := NewFactSet()
	var allows []*allow
	for _, a := range analyzers {
		allowed, bare := allowIndex(fset, files, a.Name)
		for _, lines := range allowed {
			for _, al := range lines {
				allows = append(allows, al)
			}
		}
		pass := &Pass{
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			Imported: imported,
			analyzer: a,
			diags:    &diags,
			exported: exported,
			allowed:  allowed,
		}
		a.Run(pass)
		diags = append(diags, bare...)
	}
	for _, al := range allows {
		if !al.used {
			diags = append(diags, Diagnostic{
				Analyzer: al.analyzer,
				Pos:      al.pos,
				Message: fmt.Sprintf("//protolint:allow %s suppresses nothing: no %s finding on this line or the next; delete it",
					al.analyzer, al.analyzer),
			})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags, exported
}

// All returns the full protolint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		ExhaustiveAnalyzer,
		MsgKindAnalyzer,
		DeterminismAnalyzer,
		SeamAnalyzer,
		TimeSeamAnalyzer,
		LockSendAnalyzer,
		LockOrderAnalyzer,
		ResetCheckAnalyzer,
		NoAllocAnalyzer,
	}
}

// allowIndex maps filename -> line -> allow for every reasoned
// "//protolint:allow <name> <reason>" comment naming the given analyzer. A
// bare allow (no reason text) suppresses nothing; it is returned as a
// diagnostic instead, so the missing justification is itself a finding.
func allowIndex(fset *token.FileSet, files []*ast.File, name string) (map[string]map[int]*allow, []Diagnostic) {
	idx := make(map[string]map[int]*allow)
	var bare []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "protolint:allow") {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, "protolint:allow"))
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				// The first field may list several analyzers: "a,b".
				match := false
				for _, n := range strings.Split(fields[0], ",") {
					if n == name {
						match = true
					}
				}
				if !match {
					continue
				}
				pos := fset.Position(c.Pos())
				reason := strings.Join(fields[1:], " ")
				if reason == "" {
					bare = append(bare, Diagnostic{
						Analyzer: name,
						Pos:      pos,
						Message: fmt.Sprintf("suppression %q is missing its reason: "+
							"write //protolint:allow %s <why the rule does not apply> (bare suppressions suppress nothing)",
							strings.TrimSpace(c.Text), name),
					})
					continue
				}
				if idx[pos.Filename] == nil {
					idx[pos.Filename] = make(map[int]*allow)
				}
				idx[pos.Filename][pos.Line] = &allow{analyzer: name, pos: pos, reason: reason}
			}
		}
	}
	return idx, bare
}

// namedOf unwraps pointers and reports the (package name, type name) of a
// named type, or ok=false for anything else.
func namedOf(t types.Type) (pkg, name string, ok bool) {
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return "", "", false
	}
	return obj.Pkg().Name(), obj.Name(), true
}

// constObj resolves a case/argument expression to the constant object it
// names, if any (an identifier or a package-qualified selector).
func constObj(info *types.Info, e ast.Expr) *types.Const {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	if c, ok := info.Uses[id].(*types.Const); ok {
		return c
	}
	return nil
}

// callee resolves the object a call expression invokes (function, method or
// builtin), or nil.
func callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// receiverType returns the type of the receiver expression of a method call
// (`x` in `x.M(...)`), or nil when the call is not selector-shaped.
func receiverType(info *types.Info, call *ast.CallExpr) types.Type {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return nil
	}
	return tv.Type
}

// isMethodNamed reports whether the call invokes a method with the given name
// on a value whose (possibly pointed-to) named type is pkg.typeName.
func isMethodNamed(info *types.Info, call *ast.CallExpr, pkg, typeName, method string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	rt := receiverType(info, call)
	if rt == nil {
		return false
	}
	gotPkg, gotName, ok := namedOf(rt)
	return ok && gotPkg == pkg && gotName == typeName
}

// pkgFunc reports whether the call invokes a package-level function of the
// package with the given import path, returning its name.
func pkgFunc(info *types.Info, call *ast.CallExpr, pkgPath string) (string, bool) {
	obj := callee(info, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return "", false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return "", false // method, not a package-level function
	}
	return fn.Name(), true
}
