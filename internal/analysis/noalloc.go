package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoAllocAnalyzer turns the repository's AllocsPerRun bench gates into
// build-time errors: a function whose doc comment carries the line
//
//	//caa:noalloc
//
// may not contain allocating constructs. Flagged: escaping composite
// literals (&T{…}, slice and map literals), make and new, capturing
// closures, fmt calls, string concatenation and string<->[]byte
// conversions, interface boxing of non-pointer-shaped values, `go`
// statements that need a closure (arguments, a method value, a capturing
// literal), and any append that is not the reassignment form
// `x = append(x, …)` / `x = append(x[:i], …)` (the presized-buffer idiom the
// hot paths use; actual growth is still caught by the bench gates).
//
// panic(...) argument subtrees are exempt: the failure path is allowed to
// allocate its message. The analyzer checks only the annotated function's
// own body — callees are not chased, so cold-path helpers (ring.grow) stay
// unannotated and free to allocate.
//
// Annotated exported functions are exported as facts, so importing packages
// can see which dependency entry points carry the contract.
var NoAllocAnalyzer = &Analyzer{
	Name: "noalloc",
	Doc: "functions annotated //caa:noalloc must not contain allocating " +
		"constructs; the hot path's 0 allocs/op becomes a build-time guarantee",
	Run: runNoAlloc,
}

// noAllocFact marks an exported function as carrying the //caa:noalloc
// contract.
type noAllocFact struct {
	NoAlloc bool `json:"noalloc"`
}

func runNoAlloc(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasNoAllocDoc(fn) {
				continue
			}
			w := &noAllocWalker{pass: pass, fn: fn}
			ast.Inspect(fn.Body, w.visit)
			if obj, ok := pass.Info.Defs[fn.Name].(*types.Func); ok && lockFuncExported(obj) {
				pass.ExportFact(ObjKey(obj), noAllocFact{NoAlloc: true})
			}
		}
	}
}

// hasNoAllocDoc reports whether the function's doc comment contains the
// //caa:noalloc annotation line.
func hasNoAllocDoc(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if trimComment(c.Text) == "caa:noalloc" {
			return true
		}
	}
	return false
}

func trimComment(text string) string {
	if len(text) >= 2 && text[:2] == "//" {
		text = text[2:]
	}
	for len(text) > 0 && (text[0] == ' ' || text[0] == '\t') {
		text = text[1:]
	}
	for len(text) > 0 && (text[len(text)-1] == ' ' || text[len(text)-1] == '\t') {
		text = text[:len(text)-1]
	}
	return text
}

type noAllocWalker struct {
	pass *Pass
	fn   *ast.FuncDecl
	// sanctionedAppends holds append calls in the `x = append(x, …)`
	// reassignment form, collected when their AssignStmt is visited (Inspect
	// is pre-order, so the statement is seen before the call).
	sanctionedAppends map[*ast.CallExpr]bool
	// childConcats marks operands of an already-reported string
	// concatenation chain, so a+b+c yields one diagnostic.
	childConcats map[ast.Expr]bool
}

func (w *noAllocWalker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.FuncLit:
		// The literal's interior is a different function; creating the
		// closure is what can allocate, and only when it captures.
		if captured := freeVars(w.pass.Info, n); len(captured) > 0 {
			w.report(n.Pos(), "closure captures %s: the closure and its captured variables escape to the heap", captured[0].Name())
		}
		return false

	case *ast.CompositeLit:
		tv, ok := w.pass.Info.Types[n]
		if !ok || tv.Type == nil {
			return true
		}
		switch tv.Type.Underlying().(type) {
		case *types.Slice:
			w.report(n.Pos(), "slice literal allocates its backing array")
		case *types.Map:
			w.report(n.Pos(), "map literal allocates")
		}
		return true

	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				w.report(n.Pos(), "&composite literal escapes to the heap")
			}
		}
		return true

	case *ast.BinaryExpr:
		if n.Op == token.ADD && !w.childConcats[n] {
			if tv, ok := w.pass.Info.Types[n]; ok && tv.Value == nil && isStringType(tv.Type) {
				w.report(n.Pos(), "string concatenation allocates the result")
				w.markConcatChildren(n)
			}
		}
		return true

	case *ast.AssignStmt:
		w.collectSanctionedAppends(n)
		if len(n.Lhs) == len(n.Rhs) && n.Tok == token.ASSIGN {
			for i, lhs := range n.Lhs {
				if tv, ok := w.pass.Info.Types[lhs]; ok {
					w.boxCheck(tv.Type, n.Rhs[i])
				}
			}
		}
		return true

	case *ast.ReturnStmt:
		if sig, ok := w.pass.Info.Defs[w.fn.Name].(*types.Func); ok {
			results := sig.Type().(*types.Signature).Results()
			if results.Len() == len(n.Results) {
				for i, r := range n.Results {
					w.boxCheck(results.At(i).Type(), r)
				}
			}
		}
		return true

	case *ast.ValueSpec:
		if n.Type != nil {
			if tv, ok := w.pass.Info.Types[n.Type]; ok {
				for _, v := range n.Values {
					w.boxCheck(tv.Type, v)
				}
			}
		}
		return true

	case *ast.SendStmt:
		if tv, ok := w.pass.Info.Types[n.Chan]; ok {
			if ch, ok := tv.Type.Underlying().(*types.Chan); ok {
				w.boxCheck(ch.Elem(), n.Value)
			}
		}
		return true

	case *ast.CallExpr:
		return w.visitCall(n)

	case *ast.GoStmt:
		w.visitGo(n)
		return false
	}
	return true
}

// visitGo flags a go statement whose new goroutine needs a closure: the
// compiler wraps arguments, a method value's receiver and a literal's
// captured variables into one heap-allocated func value. `go f()` on a
// package-level function or a func variable hands the func value over as it
// is. The statement's operands are still checked as ordinary expressions.
func (w *noAllocWalker) visitGo(n *ast.GoStmt) {
	call := n.Call
	fun := ast.Unparen(call.Fun)
	lit, isLit := fun.(*ast.FuncLit)
	switch {
	case len(call.Args) > 0:
		w.report(n.Pos(), "go statement with arguments allocates the closure that carries them to the new goroutine")
	case w.isMethodValue(fun):
		w.report(n.Pos(), "go on a method value allocates the closure binding its receiver")
	case isLit:
		if captured := freeVars(w.pass.Info, lit); len(captured) > 0 {
			w.report(n.Pos(), "go statement's closure captures %s: it escapes to the heap with the new goroutine", captured[0].Name())
		}
	}
	if !isLit { // a literal's body is another function
		ast.Inspect(fun, w.visit)
	}
	for _, arg := range call.Args {
		ast.Inspect(arg, w.visit)
	}
}

// isMethodValue reports whether e selects a method through a value (x.m), as
// opposed to a package-qualified function or a method expression (T.m).
func (w *noAllocWalker) isMethodValue(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := w.pass.Info.Selections[sel]
	return ok && s.Kind() == types.MethodVal
}

func (w *noAllocWalker) visitCall(n *ast.CallExpr) bool {
	// panic's argument is the failure path; let it build its message.
	if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
		if b, isBuiltin := w.pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "panic":
				return false
			case "make":
				w.reportMake(n)
				return true
			case "new":
				w.report(n.Pos(), "new allocates")
				return true
			case "append":
				if !w.sanctionedAppends[n] {
					w.report(n.Pos(), "append outside the `x = append(x, …)` reassignment form may allocate a new backing array")
				}
				return true
			}
		}
	}
	if name, ok := pkgFunc(w.pass.Info, n, "fmt"); ok {
		w.report(n.Pos(), "fmt.%s allocates (formatting state and boxed arguments)", name)
		return true
	}
	// Type conversions: string <-> []byte / []rune copy their contents.
	if tv, ok := w.pass.Info.Types[n.Fun]; ok && tv.IsType() && len(n.Args) == 1 {
		dst := tv.Type
		if src, ok := w.pass.Info.Types[n.Args[0]]; ok && src.Value == nil {
			if isStringType(dst) && isByteOrRuneSlice(src.Type) {
				w.report(n.Pos(), "[]byte-to-string conversion copies the bytes")
			} else if isByteOrRuneSlice(dst) && isStringType(src.Type) {
				w.report(n.Pos(), "string-to-[]byte conversion copies the bytes")
			}
		}
		return true
	}
	// Interface-typed parameters box concrete arguments.
	if tvFun, ok := w.pass.Info.Types[n.Fun]; ok && tvFun.Type != nil {
		if sig, ok := tvFun.Type.Underlying().(*types.Signature); ok {
			w.boxCheckArgs(sig, n)
		}
	}
	return true
}

func (w *noAllocWalker) reportMake(n *ast.CallExpr) {
	if len(n.Args) == 0 {
		return
	}
	tv, ok := w.pass.Info.Types[n.Args[0]]
	if !ok || tv.Type == nil {
		w.report(n.Pos(), "make allocates")
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		w.report(n.Pos(), "make(map) allocates")
	case *types.Chan:
		w.report(n.Pos(), "make(chan) allocates")
	default:
		w.report(n.Pos(), "make([]T, …) allocates its backing array")
	}
}

// boxCheckArgs flags concrete arguments passed to interface-typed parameters.
func (w *noAllocWalker) boxCheckArgs(sig *types.Signature, call *ast.CallExpr) {
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type() // passed as-is, no boxing
				if _, isSlice := pt.Underlying().(*types.Slice); isSlice {
					continue
				}
			} else if s, ok := params.At(params.Len() - 1).Type().Underlying().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil {
			w.boxCheck(pt, arg)
		}
	}
}

// boxCheck flags e when storing it into a destination of interface type would
// box it on the heap: concrete, non-constant, non-nil, and not pointer-shaped
// (pointers, channels, maps and funcs are stored in the interface word
// directly).
func (w *noAllocWalker) boxCheck(dst types.Type, e ast.Expr) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	tv, ok := w.pass.Info.Types[e]
	if !ok || tv.Type == nil || tv.Value != nil || tv.IsNil() {
		return
	}
	src := tv.Type
	if types.IsInterface(src) {
		return
	}
	switch u := src.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return
		}
	}
	w.report(e.Pos(), "passing %s into an interface boxes it on the heap", src.String())
}

// collectSanctionedAppends marks append calls in the reassignment form
// `x = append(x, …)` or `x = append(x[:i], …)`: the hot paths presize their
// buffers, so the reassignment form does not allocate in the steady state.
func (w *noAllocWalker) collectSanctionedAppends(n *ast.AssignStmt) {
	if n.Tok != token.ASSIGN || len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, rhs := range n.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "append" {
			continue
		}
		if _, isBuiltin := w.pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
			continue
		}
		base := ast.Unparen(call.Args[0])
		if slice, ok := base.(*ast.SliceExpr); ok {
			base = ast.Unparen(slice.X)
		}
		if types.ExprString(base) == types.ExprString(ast.Unparen(n.Lhs[i])) {
			if w.sanctionedAppends == nil {
				w.sanctionedAppends = make(map[*ast.CallExpr]bool)
			}
			w.sanctionedAppends[call] = true
		}
	}
}

// markConcatChildren records the operand sub-concatenations of a reported
// string concatenation, so a + b + c produces a single diagnostic.
func (w *noAllocWalker) markConcatChildren(n *ast.BinaryExpr) {
	if w.childConcats == nil {
		w.childConcats = make(map[ast.Expr]bool)
	}
	for _, op := range []ast.Expr{ast.Unparen(n.X), ast.Unparen(n.Y)} {
		if be, ok := op.(*ast.BinaryExpr); ok && be.Op == token.ADD {
			w.childConcats[be] = true
			w.markConcatChildren(be)
		}
	}
}

func (w *noAllocWalker) report(pos token.Pos, format string, args ...any) {
	w.pass.Reportf(pos, format, args...)
}

// freeVars returns the variables a function literal captures: used inside the
// literal, declared outside it, and neither package-level nor struct fields.
func freeVars(info *types.Info, lit *ast.FuncLit) []*types.Var {
	var out []*types.Var
	seen := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || seen[v] || v.IsField() {
			return true
		}
		if v.Pkg() == nil || (v.Parent() != nil && v.Parent() == v.Pkg().Scope()) {
			return true // package-level: accessed directly, not captured
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // declared inside the literal (params, locals)
		}
		seen[v] = true
		out = append(out, v)
		return true
	})
	return out
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 ||
		b.Kind() == types.Rune || b.Kind() == types.Int32)
}
