package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ResetCheckAnalyzer guards pooled-object hygiene: a type that is recycled
// through a sync.Pool (or that advertises recyclability by having a Reset
// method) must clear every struct field in Reset, or a field added later can
// carry one session's state into the next pooled session.
//
// A field counts as covered when Reset (or a helper method on the same
// receiver, followed transitively within the package) assigns it, clear()s
// it, calls a method on it (seq.Store(0)), takes its address (the
// shard-aliasing pattern `s := &l.shards[i]`), or receives from it (draining
// a signal channel); `*recv = T{}` covers everything. Uncovered fields are reported at their declaration, which is
// also where a reasoned //protolint:allow resetcheck comment belongs when a
// field must intentionally survive reuse (capacity watermarks).
//
// The analyzer additionally flags sync.Pool.Put of a value whose type has no
// Reset method at all.
var ResetCheckAnalyzer = &Analyzer{
	Name: "resetcheck",
	Doc: "types recycled through sync.Pool must clear every struct field in " +
		"Reset, so no field leaks state across pooled sessions",
	Run: runResetCheck,
}

func runResetCheck(pass *Pass) {
	// Index every method declaration in the package so helper calls on the
	// same receiver can be followed.
	methods := make(map[*types.Func]*ast.FuncDecl)
	var resets []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil {
				continue
			}
			obj, ok := pass.Info.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			methods[obj] = fn
			if fn.Name.Name == "Reset" {
				resets = append(resets, fn)
			}
		}
	}

	for _, fn := range resets {
		checkReset(pass, fn, methods)
	}

	// Pool.Put of a Reset-less type: the pool will recycle stale state with
	// no hook to clear it.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			if !isMethodNamed(pass.Info, call, "sync", "Pool", "Put") {
				return true
			}
			tv, ok := pass.Info.Types[call.Args[0]]
			if !ok || tv.Type == nil || types.IsInterface(tv.Type) {
				return true
			}
			if _, name, ok := namedOf(tv.Type); ok {
				if !hasResetMethod(tv.Type) {
					pass.Reportf(call.Pos(),
						"sync.Pool.Put of %s, which has no Reset method: recycled values will retain the previous session's state",
						name)
				}
			}
			return true
		})
	}
}

// checkReset verifies one Reset method covers every field of its receiver's
// struct type.
func checkReset(pass *Pass, fn *ast.FuncDecl, methods map[*types.Func]*ast.FuncDecl) {
	obj, ok := pass.Info.Defs[fn.Name].(*types.Func)
	if !ok {
		return
	}
	recv := obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return
	}
	t := recv.Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok || st.NumFields() == 0 {
		return
	}

	w := &resetWalker{
		pass:    pass,
		methods: methods,
		visited: make(map[*types.Func]bool),
		covered: make(map[string]bool),
	}
	w.walkMethod(obj, fn)

	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "_" {
			continue // padding, carries no state
		}
		if w.all || w.covered[f.Name()] {
			continue
		}
		pass.Reportf(f.Pos(),
			"(*%s).Reset does not clear field %s: state leaks across pooled reuse (assign or clear it in Reset, or allow with a reason here)",
			named.Obj().Name(), f.Name())
	}
}

type resetWalker struct {
	pass    *Pass
	methods map[*types.Func]*ast.FuncDecl
	visited map[*types.Func]bool
	covered map[string]bool
	all     bool // *recv = T{} seen: every field covered
}

// walkMethod records the coverage events of one method body, following calls
// to other methods on the same receiver.
func (w *resetWalker) walkMethod(obj *types.Func, fn *ast.FuncDecl) {
	if w.visited[obj] {
		return
	}
	w.visited[obj] = true
	if len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return // anonymous receiver: the body cannot touch fields
	}
	recvObj, ok := w.pass.Info.Defs[fn.Recv.List[0].Names[0]].(*types.Var)
	if !ok {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if star, ok := ast.Unparen(lhs).(*ast.StarExpr); ok {
					if id, ok := ast.Unparen(star.X).(*ast.Ident); ok && w.pass.Info.Uses[id] == recvObj {
						w.all = true
						continue
					}
				}
				if f := fieldOf(w.pass.Info, recvObj, lhs); f != "" {
					w.covered[f] = true
				}
			}
		case *ast.IncDecStmt:
			if f := fieldOf(w.pass.Info, recvObj, n.X); f != "" {
				w.covered[f] = true
			}
		case *ast.UnaryExpr:
			// &recv.f, &recv.f[i]: the alias is presumed to be cleared
			// through (the shard-loop pattern). <-recv.f drains a signal
			// channel, which is how a channel field is emptied in place.
			if n.Op == token.AND || n.Op == token.ARROW {
				if f := fieldOf(w.pass.Info, recvObj, n.X); f != "" {
					w.covered[f] = true
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "clear" && len(n.Args) == 1 {
				if _, isBuiltin := w.pass.Info.Uses[id].(*types.Builtin); isBuiltin {
					if f := fieldOf(w.pass.Info, recvObj, n.Args[0]); f != "" {
						w.covered[f] = true
					}
				}
				return true
			}
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// recv.f.Store(0): a mutating method call on the field.
			if f := fieldOf(w.pass.Info, recvObj, sel.X); f != "" {
				w.covered[f] = true
				return true
			}
			// recv.helper(): follow same-receiver helpers in this package.
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && w.pass.Info.Uses[id] == recvObj {
				if callee, ok := w.pass.Info.Uses[sel.Sel].(*types.Func); ok {
					if decl, ok := w.methods[callee]; ok {
						w.walkMethod(callee, decl)
					}
				}
			}
		}
		return true
	})
}

// fieldOf resolves an expression rooted at the receiver to the receiver field
// it touches: recv.f, recv.f[i], recv.f.g all yield "f". Returns "" when the
// expression is not receiver-rooted.
func fieldOf(info *types.Info, recv *types.Var, e ast.Expr) string {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && info.Uses[id] == recv {
				return x.Sel.Name
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return ""
		}
	}
}

// hasResetMethod reports whether t (or *t) has a Reset method.
func hasResetMethod(t types.Type) bool {
	if _, isPtr := t.(*types.Pointer); !isPtr {
		t = types.NewPointer(t)
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "Reset")
	_, ok := obj.(*types.Func)
	return ok
}
