package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// LockOrderAnalyzer builds the lock-acquisition graph — which mutex class is
// held when another is blockingly acquired — across every analyzed package
// and reports any cycle as a static deadlock. Locks are abstracted to
// classes: "pkgpath.Type.field" for a sync.Mutex/RWMutex struct field (or
// embedded mutex), "pkgpath.var" for a package-level mutex. Function-local
// mutexes have no class (they cannot participate in a cross-goroutine cycle
// by identity).
//
// Within a function the held set is tracked flow-sensitively over the
// intra-function CFG by walkHeld, the walk locksend reports from too
// (may-hold: branches join by union, a deferred unlock keeps the lock held
// to the end). Calls propagate: a call made while
// holding H contributes an edge H -> A for every class A the callee may
// blockingly acquire, resolved through same-package summaries (iterated to a
// fixpoint over the package's call graph), imported facts for exported
// functions of other analyzed packages, and — for interface method calls —
// the union over every known implementation in scope.
//
// Each package exports two kinds of facts: per exported function/method, the
// set of classes it may acquire; at package level, the accumulated edge list
// (its own plus its dependencies'), so edges flow transitively to importers.
// A cycle is reported at each edge created by the package under analysis that
// closes one, so a cross-package deadlock surfaces exactly once, in the
// package that completes it.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc: "the lock-acquisition graph across packages must be acyclic: " +
		"a cycle of held-while-acquiring edges is a static deadlock",
	Run: runLockOrder,
}

// lockAcquiresFact is the per-function fact: the lock classes the function
// may blockingly acquire, directly or through its callees.
type lockAcquiresFact struct {
	Acquires []string `json:"acquires,omitempty"`
}

// lockEdge is one held-while-acquiring observation.
type lockEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	// Pos is the "file:line" of the acquisition (or call) that creates the
	// edge, in the package that created it.
	Pos string `json:"pos"`
	// Via names the called function when the edge came from a call rather
	// than a direct Lock.
	Via string `json:"via,omitempty"`
}

// lockEdgesFact is the package-level fact: every edge known to this package
// (local ones plus its dependencies'), so importers see the transitive graph.
type lockEdgesFact struct {
	Edges []lockEdge `json:"edges,omitempty"`
}

const (
	lockOpNone       = iota
	lockOpAcquire    // Lock, RLock: blocking
	lockOpTryAcquire // TryLock, TryRLock: non-blocking, but holds on success
	lockOpRelease    // Unlock, RUnlock
)

// lockFuncSummary accumulates what one function may do with locks.
type lockFuncSummary struct {
	acquires map[string]bool // blocking acquisitions, transitive
}

type lockOrderState struct {
	pass      *Pass
	summaries map[*types.Func]*lockFuncSummary
	bodies    map[*types.Func]*ast.FuncDecl
	// localEdges maps dedup key -> edge with a real token.Pos for reporting.
	localEdges map[string]lockEdge
	localPos   map[string]token.Pos
	changed    bool
	// pkgs caches the transitively imported packages for interface-method
	// implementation lookup.
	pkgs map[string]*types.Package
	// impls memoizes interface-method resolution: the concrete methods
	// implementing (interface type, method name). The implementation set is
	// fixed for the run; only the summaries behind it grow.
	impls map[implKey][]*types.Func
	// factAcquires memoizes the decoded acquire facts of imported functions.
	factAcquires map[*types.Func][]string
}

type implKey struct {
	iface  *types.Interface
	method string
}

func runLockOrder(pass *Pass) {
	st := &lockOrderState{
		pass:         pass,
		summaries:    make(map[*types.Func]*lockFuncSummary),
		bodies:       make(map[*types.Func]*ast.FuncDecl),
		localEdges:   make(map[string]lockEdge),
		localPos:     make(map[string]token.Pos),
		pkgs:         make(map[string]*types.Package),
		impls:        make(map[implKey][]*types.Func),
		factAcquires: make(map[*types.Func][]string),
	}
	collectImports(pass.Pkg, st.pkgs)

	var lits []*ast.FuncLit
	litSummaries := make(map[*ast.FuncLit]*lockFuncSummary)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if obj, ok := pass.Info.Defs[fn.Name].(*types.Func); ok {
				st.bodies[obj] = fn
				st.summaries[obj] = &lockFuncSummary{acquires: make(map[string]bool)}
			}
			// Closures run on their own goroutines or under their creator's
			// locks; either way their internal edges are real. Analyze each
			// body separately, starting lock-free. Their summaries must
			// persist across fixpoint rounds: a fresh summary would re-record
			// its acquisitions every round and the fixpoint would never
			// stabilize.
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					lits = append(lits, lit)
					litSummaries[lit] = &lockFuncSummary{acquires: make(map[string]bool)}
				}
				return true
			})
		}
	}

	// Fixpoint over the package call graph: summaries only grow, so iterate
	// until stable.
	for {
		st.changed = false
		for obj, decl := range st.bodies {
			st.analyzeBody(decl.Body, st.summaries[obj])
		}
		for _, lit := range lits {
			st.analyzeBody(lit.Body, litSummaries[lit])
		}
		if !st.changed {
			break
		}
	}

	// Assemble the full graph: imported package edges plus local ones.
	all := make(map[string]lockEdge)
	for _, path := range pass.FactPackages() {
		var fact lockEdgesFact
		if !pass.ImportFact(path, "", &fact) {
			continue
		}
		for _, e := range fact.Edges {
			all[e.From+"\x00"+e.To+"\x00"+e.Pos] = e
		}
	}
	for k, e := range st.localEdges {
		all[k] = e
	}
	adj := make(map[string][]string)
	for _, e := range all {
		adj[e.From] = append(adj[e.From], e.To)
	}
	for from := range adj {
		sort.Strings(adj[from])
	}

	// Report every local edge that closes a cycle, at the acquisition site.
	keys := make([]string, 0, len(st.localEdges))
	for k := range st.localEdges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := st.localEdges[k]
		pos := st.localPos[k]
		if e.From == e.To {
			pass.Reportf(pos,
				"acquires %s while already holding %s (same lock class): self-deadlock, or two instances locked in unordered fashion",
				lockClassShort(e.To), lockClassShort(e.From))
			continue
		}
		if path := lockPath(adj, e.To, e.From); path != nil {
			via := ""
			if e.Via != "" {
				via = " via " + e.Via
			}
			pass.Reportf(pos,
				"lock ordering cycle (static deadlock): acquiring %s while holding %s%s, but %s is also acquired while %s is held (%s)",
				lockClassShort(e.To), lockClassShort(e.From), via,
				lockClassShort(e.From), lockPathString(append([]string{e.To}, path[1:]...)),
				returnEdgePos(all, path))
		}
	}

	// Export facts: acquire sets of exported functions/methods, and the full
	// edge list at package level.
	for obj := range st.bodies {
		if !lockFuncExported(obj) {
			continue
		}
		acq := st.summaries[obj].acquires
		if len(acq) == 0 {
			continue
		}
		pass.ExportFact(ObjKey(obj), lockAcquiresFact{Acquires: sortedKeys(acq)})
	}
	edges := make([]lockEdge, 0, len(all))
	for _, e := range all {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		if edges[i].To != edges[j].To {
			return edges[i].To < edges[j].To
		}
		return edges[i].Pos < edges[j].Pos
	})
	if len(edges) > 0 {
		pass.ExportFact("", lockEdgesFact{Edges: edges})
	}
}

// analyzeBody replays the shared held-lock walk over one function body,
// accumulating edges into the package state and acquisitions into summary.
// Function-local mutexes have no class: they are held in the walk but draw
// no edge.
func (st *lockOrderState) analyzeBody(body *ast.BlockStmt, summary *lockFuncSummary) {
	info := st.pass.Info
	walkHeld(info, body, nil, func(n ast.Node, held heldLocks) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		var acquires []string
		via := ""
		switch x, op := lockOp(info, call); op {
		case lockOpAcquire:
			if class := lockClass(info, x); class != "" {
				acquires = []string{class}
			}
		case lockOpNone:
			// An ordinary call: propagate the callee's acquire set.
			acquires, via = st.calleeAcquires(call), calleeName(info, call)
		}
		for _, acq := range acquires {
			summary.addAcquire(st, acq)
			for _, from := range held {
				if from != "" {
					st.addEdge(from, acq, call.Pos(), via)
				}
			}
		}
	})
}

// heldLocks is the may-hold set of the held-lock walk: each possibly held
// mutex, keyed by its expression ("f.mu"), mapped to its lock class ("" for
// a function-local mutex).
type heldLocks map[string]string

// walkHeld is the held-lock dataflow lockorder and locksend share. It runs
// over the intra-function CFG of body, starting from entry: Lock, RLock,
// TryLock and TryRLock add the mutex, Unlock and RUnlock remove it, branches
// join by union, and a deferred unlock keeps the lock held to the end. Once
// the held sets are stable it replays every block once, calling visit on each
// node in source order with the locks held just before that node. The
// interiors of function literals and of go and defer statements are neither
// applied nor visited (the literal or statement node itself is): they run on
// their own schedule, and each analyzer decides what they start holding.
func walkHeld(info *types.Info, body *ast.BlockStmt, entry heldLocks, visit func(ast.Node, heldLocks)) {
	cfg := BuildCFG(body)
	index := make(map[*Block]int, len(cfg.Blocks))
	for i, b := range cfg.Blocks {
		index[b] = i
	}
	preds := make([][]int, len(cfg.Blocks))
	for i, b := range cfg.Blocks {
		for _, s := range b.Succs {
			preds[index[s]] = append(preds[index[s]], i)
		}
	}
	step := func(b *Block, held heldLocks, visit func(ast.Node, heldLocks)) {
		for _, n := range b.Nodes {
			ast.Inspect(n, func(n ast.Node) bool {
				if visit != nil {
					visit(n, held)
				}
				switch n := n.(type) {
				case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
					return false
				case *ast.CallExpr:
					x, op := lockOp(info, n)
					switch op {
					case lockOpAcquire, lockOpTryAcquire:
						if _, ok := held[types.ExprString(x)]; !ok {
							held[types.ExprString(x)] = lockClass(info, x)
						}
					case lockOpRelease:
						delete(held, types.ExprString(x))
					}
					return op == lockOpNone
				}
				return true
			})
		}
	}
	in := make([]heldLocks, len(cfg.Blocks))
	out := make([]heldLocks, len(cfg.Blocks))
	for changed := true; changed; {
		changed = false
		for i, b := range cfg.Blocks {
			merged := make(heldLocks)
			if b == cfg.Entry {
				maps.Copy(merged, entry)
			}
			for _, p := range preds[i] {
				for k, c := range out[p] {
					if _, ok := merged[k]; !ok {
						merged[k] = c
					}
				}
			}
			if out[i] != nil && sameHeld(merged, in[i]) {
				continue
			}
			in[i] = merged
			held := maps.Clone(merged)
			step(b, held, nil)
			if !sameHeld(held, out[i]) {
				changed = true
			}
			out[i] = held
		}
	}
	for i, b := range cfg.Blocks {
		step(b, maps.Clone(in[i]), visit)
	}
}

func (s *lockFuncSummary) addAcquire(st *lockOrderState, class string) {
	if !s.acquires[class] {
		s.acquires[class] = true
		st.changed = true
	}
}

func (st *lockOrderState) addEdge(from, to string, pos token.Pos, via string) {
	p := st.pass.Fset.Position(pos)
	e := lockEdge{From: from, To: to, Pos: fmt.Sprintf("%s:%d", p.Filename, p.Line), Via: via}
	k := e.From + "\x00" + e.To + "\x00" + e.Pos
	if _, ok := st.localEdges[k]; !ok {
		st.localEdges[k] = e
		st.localPos[k] = pos
		st.changed = true
	}
}

// lockOp classifies a call as a sync.Mutex/RWMutex operation (a promoted
// method of an embedded mutex included) and returns the mutex expression.
func lockOp(info *types.Info, call *ast.CallExpr) (mutex ast.Expr, op int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, lockOpNone
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = lockOpAcquire
	case "TryLock", "TryRLock":
		op = lockOpTryAcquire
	case "Unlock", "RUnlock":
		op = lockOpRelease
	default:
		return nil, lockOpNone
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil, lockOpNone
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || !isSyncMutexType(recv.Type()) {
		return nil, lockOpNone
	}
	return sel.X, op
}

// lockClass abstracts the mutex expression to a class identity, or "" for a
// function-local mutex.
func lockClass(info *types.Info, x ast.Expr) string {
	x = ast.Unparen(x)
	tv, ok := info.Types[x]
	if !ok {
		return ""
	}
	if !isSyncMutexType(tv.Type) {
		// Embedded mutex: x is the outer value (t.Lock()). Class by the
		// outer named type plus the mutex type's name as the field.
		if pkgPath, typeName, mutexName, ok := embeddedMutexOwner(tv.Type); ok {
			return pkgPath + "." + typeName + "." + mutexName
		}
		return ""
	}
	switch x := x.(type) {
	case *ast.SelectorExpr:
		// y.mu — class by the named type of y.
		if ytv, ok := info.Types[ast.Unparen(x.X)]; ok {
			if path, name, ok := namedPathOf(ytv.Type); ok {
				return path + "." + name + "." + x.Sel.Name
			}
		}
		// pkg.Var — a package-qualified mutex variable.
		if obj, ok := info.Uses[x.Sel].(*types.Var); ok && obj.Pkg() != nil &&
			obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		return ""
	case *ast.Ident:
		obj, ok := info.Uses[x].(*types.Var)
		if !ok || obj.Pkg() == nil {
			return ""
		}
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name() // package-level var
		}
		return "" // function-local mutex: no identity across goroutines
	case *ast.IndexExpr:
		// stripes[i].mu reaches here only as stripes[i] for embedded locks;
		// the SelectorExpr case above already handled field access. Class by
		// the element's named type when there is one.
		if path, name, ok := namedPathOf(tv.Type); ok {
			return path + "." + name
		}
	}
	return ""
}

// calleeAcquires resolves the set of lock classes a call may blockingly
// acquire: same-package summaries, imported facts for exported functions,
// and for interface methods the union over known implementations.
func (st *lockOrderState) calleeAcquires(call *ast.CallExpr) []string {
	obj := callee(st.pass.Info, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return st.interfaceAcquires(recv.Type(), fn.Name())
	}
	return st.funcAcquires(fn)
}

// funcAcquires returns the acquire set of one concrete function. Imported
// facts are immutable for the run, so their decoded form is memoized —
// transfer asks on every dataflow iteration.
func (st *lockOrderState) funcAcquires(fn *types.Func) []string {
	if fn.Pkg() == st.pass.Pkg {
		if s, ok := st.summaries[fn]; ok {
			// Unsorted: callers dedup, and everything user-visible is
			// sorted at report/export time.
			out := make([]string, 0, len(s.acquires))
			for c := range s.acquires {
				out = append(out, c)
			}
			return out
		}
		return nil
	}
	if acq, ok := st.factAcquires[fn]; ok {
		return acq
	}
	var fact lockAcquiresFact
	var acq []string
	if st.pass.ImportFact(fn.Pkg().Path(), ObjKey(fn), &fact) {
		acq = fact.Acquires
	}
	st.factAcquires[fn] = acq
	return acq
}

// interfaceAcquires unions the acquire sets of every named type in the
// current package or a fact-bearing imported package that implements the
// interface, for the named method. The implementation set is resolved once
// per (interface, method) and memoized: transfer re-runs on every dataflow
// iteration, and re-walking package scopes with types.Implements each time
// is quadratic enough to matter on real trees.
func (st *lockOrderState) interfaceAcquires(ifaceType types.Type, method string) []string {
	iface, ok := ifaceType.Underlying().(*types.Interface)
	if !ok || iface.Empty() {
		return nil
	}
	key := implKey{iface: iface, method: method}
	impls, cached := st.impls[key]
	if !cached {
		consider := func(pkg *types.Package) {
			if pkg == nil {
				return
			}
			scope := pkg.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				T := tn.Type()
				if types.IsInterface(T) {
					continue
				}
				ptr := types.NewPointer(T)
				if !types.Implements(T, iface) && !types.Implements(ptr, iface) {
					continue
				}
				mobj, _, _ := types.LookupFieldOrMethod(ptr, true, pkg, method)
				if fn, ok := mobj.(*types.Func); ok {
					impls = append(impls, fn)
				}
			}
		}
		consider(st.pass.Pkg)
		for path, pkg := range st.pkgs {
			if st.pass.HasFactsFor(path) {
				consider(pkg)
			}
		}
		st.impls[key] = impls
	}
	acq := make(map[string]bool)
	for _, fn := range impls {
		for _, a := range st.funcAcquires(fn) {
			acq[a] = true
		}
	}
	return sortedKeys(acq)
}

// sameHeld compares two held sets by their locks (the classes follow from
// them). A nil b is a block not yet computed, equal to nothing.
func sameHeld(a, b heldLocks) bool {
	if b == nil || len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// lockPath returns a shortest from -> ... -> to node path through the edge
// adjacency, or nil when unreachable.
func lockPath(adj map[string][]string, from, to string) []string {
	if from == to {
		return []string{from}
	}
	prev := map[string]string{from: from}
	queue := []string{from}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, next := range adj[n] {
			if _, seen := prev[next]; seen {
				continue
			}
			prev[next] = n
			if next == to {
				var path []string
				for at := to; ; at = prev[at] {
					path = append([]string{at}, path...)
					if at == from {
						return path
					}
				}
			}
			queue = append(queue, next)
		}
	}
	return nil
}

// returnEdgePos finds the recorded position of the first edge on the return
// path, for the diagnostic message.
func returnEdgePos(all map[string]lockEdge, path []string) string {
	if len(path) < 2 {
		return "same site"
	}
	for _, e := range all {
		if e.From == path[0] && e.To == path[1] {
			return "see " + e.Pos
		}
	}
	return "position unknown"
}

func lockPathString(path []string) string {
	short := make([]string, len(path))
	for i, c := range path {
		short[i] = lockClassShort(c)
	}
	return strings.Join(short, " -> ")
}

// lockClassShort trims a class to its last package path element for
// readability: "repro/internal/transport.Concurrent.mu" ->
// "transport.Concurrent.mu".
func lockClassShort(class string) string {
	if i := strings.LastIndex(class, "/"); i >= 0 {
		return class[i+1:]
	}
	return class
}

func lockFuncExported(fn *types.Func) bool {
	if !fn.Exported() {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		_, name, ok := namedOf(recv.Type())
		if !ok || !ast.IsExported(name) {
			return false
		}
	}
	return true
}

func isSyncMutexType(t types.Type) bool {
	pkg, name, ok := namedOf(t)
	return ok && pkg == "sync" && (name == "Mutex" || name == "RWMutex")
}

// embeddedMutexOwner reports the owner (pkgpath, type) and embedded mutex
// type name when t is a named struct embedding sync.Mutex or sync.RWMutex.
func embeddedMutexOwner(t types.Type) (pkgPath, typeName, mutexName string, ok bool) {
	path, name, okNamed := namedPathOf(t)
	if !okNamed {
		return "", "", "", false
	}
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	s, okStruct := t.Underlying().(*types.Struct)
	if !okStruct {
		return "", "", "", false
	}
	for i := 0; i < s.NumFields(); i++ {
		f := s.Field(i)
		if f.Embedded() && isSyncMutexType(f.Type()) {
			return path, name, f.Name(), true
		}
	}
	return "", "", "", false
}

// namedPathOf is namedOf but with the package import path.
func namedPathOf(t types.Type) (path, name string, ok bool) {
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
	return obj.Pkg().Path(), obj.Name(), true
}

func calleeName(info *types.Info, call *ast.CallExpr) string {
	if obj := callee(info, call); obj != nil {
		if fn, ok := obj.(*types.Func); ok {
			return ObjKey(fn)
		}
	}
	return ""
}

func collectImports(pkg *types.Package, out map[string]*types.Package) {
	for _, imp := range pkg.Imports() {
		if _, ok := out[imp.Path()]; ok {
			continue
		}
		out[imp.Path()] = imp
		collectImports(imp, out)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
