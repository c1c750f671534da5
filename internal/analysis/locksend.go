package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// blockingSendMethods are method names that deliver a message and may block
// on the fabric (inbox backpressure, a full channel, a slow pump). Holding a
// mutex across one of them is the deadlock shape the Concurrent backend's
// lock striping exists to avoid: the pump that would drain the fabric is
// blocked on the very lock the sender holds.
var blockingSendMethods = map[string]bool{
	"Send": true, "SendTo": true, "SendTagged": true, "Multicast": true,
	"Publish": true, "Deliver": true,
}

// LockSendAnalyzer flags channel sends and blocking delivery calls made while
// a sync.Mutex or sync.RWMutex is held. It reports from lockorder's held-lock
// walk (walkHeld), so the held set is flow-sensitive: a lock taken in one
// branch is held after the join, `defer mu.Unlock()` holds the lock for the
// rest of the function, and a function-local mutex counts like any other.
// An immediately invoked func(){...}() runs under the caller's locks; every
// other function literal (a spawned goroutine, a callback) starts lock-free.
// Test files are exempt.
var LockSendAnalyzer = &Analyzer{
	Name: "locksend",
	Doc: "no channel send or blocking delivery call while holding a " +
		"sync.Mutex/RWMutex: copy under the lock, send after releasing it",
	Run: runLockSend,
}

func runLockSend(pass *Pass) {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkLockSend(pass, fn.Body, nil)
			}
		}
	}
}

// checkLockSend walks one function body from the entry held set and reports
// every send and blocking delivery call made while a lock is held.
func checkLockSend(pass *Pass, body *ast.BlockStmt, entry heldLocks) {
	inline := make(map[*ast.FuncLit]bool)
	call := func(call *ast.CallExpr, held heldLocks) {
		if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			inline[lit] = true
			checkLockSend(pass, lit.Body, held)
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if len(held) == 0 || !ok || !blockingSendMethods[sel.Sel.Name] {
			return
		}
		// Only flag calls that resolve to methods (delivery APIs are methods
		// on transports, ports and endpoints).
		if _, isFunc := callee(pass.Info, call).(*types.Func); !isFunc {
			return
		}
		pass.Reportf(call.Pos(),
			"%s call while holding %s may deadlock against the delivery pump; copy under the lock and send after releasing it",
			sel.Sel.Name, strings.Join(sortedKeys(held), ", "))
	}
	walkHeld(pass.Info, body, entry, func(n ast.Node, held heldLocks) {
		switch n := n.(type) {
		case *ast.SendStmt:
			if len(held) > 0 {
				pass.Reportf(n.Pos(),
					"channel send while holding %s; copy under the lock and send after releasing it",
					strings.Join(sortedKeys(held), ", "))
			}
		case *ast.CallExpr:
			call(n, held)
		case *ast.DeferStmt:
			call(n.Call, held)
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				checkLockSend(pass, lit.Body, nil)
			}
		case *ast.FuncLit:
			if !inline[n] {
				checkLockSend(pass, n.Body, nil)
			}
		}
	})
}
