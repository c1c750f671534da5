package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// deterministicPkgs are the packages reachable from protocol.Explore — the
// bounded model checker replays delivery schedules step by step, so every
// package on that path must behave identically given the same schedule:
// protocol (engines, Sim, Explore), exception (resolution trees), trace (the
// log whose census the invariants read), transport (the Deterministic fabric
// and its hooks), wire (the codec) and ident. Wall-clock reads in them are
// timeseam's to report: these packages are in its clock-seam set.
var deterministicPkgs = map[string]bool{
	"protocol":  true,
	"exception": true,
	"trace":     true,
	"transport": true,
	"wire":      true,
	"ident":     true,
}

// deterministicExemptFile implements a real-I/O backend: the socket-backed
// TCP fabric lives in package transport for the shared seam types, but
// Explore never replays it (a kernel socket has no schedule to replay).
// Its clock use is timeseam's to check, as for the rest of the package.
const deterministicExemptFile = "tcp.go"

// allowedRandFuncs are the math/rand constructors: building a *rand.Rand from
// a caller-provided seed is exactly how deterministic interleaving is meant
// to work (transport.RandChooser). Everything else at package level draws
// from the global, schedule-dependent source.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// emissionNames (lower-cased) identify calls that emit messages or trace
// events. Inside a range over a map, Go's randomised iteration order makes
// the emission order differ between runs, which breaks schedule replay.
var emissionNames = map[string]bool{
	"send": true, "multicast": true, "record": true, "log": true,
	"emit": true, "deliver": true, "broadcast": true, "publish": true,
	"handlemessage": true,
}

// DeterminismAnalyzer enforces schedule-replay safety in the packages behind
// protocol.Explore: no draws from the global math/rand source, and no
// message/trace emission while ranging over a map. Test files are exempt
// (they drive schedules, they are not replayed by them).
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc: "packages reachable from protocol.Explore may not use the global " +
		"math/rand source or emit messages while ranging over a map",
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) {
	if !deterministicPkgs[pass.PkgName()] {
		return
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		if filepath.Base(pass.Fset.Position(f.Pos()).Filename) == deterministicExemptFile {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkGlobalRand(pass, n)
			case *ast.RangeStmt:
				checkMapRangeEmission(pass, n)
			}
			return true
		})
	}
}

func checkGlobalRand(pass *Pass, call *ast.CallExpr) {
	for _, path := range []string{"math/rand", "math/rand/v2"} {
		if name, ok := pkgFunc(pass.Info, call, path); ok && !allowedRandFuncs[name] {
			pass.Reportf(call.Pos(),
				"call to %s.%s uses the global random source in deterministic package %s (accept a seeded *rand.Rand instead)",
				path, name, pass.PkgName())
			return
		}
	}
}

// checkMapRangeEmission flags ranges over maps whose body sends on a channel
// or calls an emission-shaped function: the per-iteration emissions land in
// Go's randomised map order, so two runs of the same schedule diverge.
func checkMapRangeEmission(pass *Pass, rng *ast.RangeStmt) {
	tv, ok := pass.Info.Types[rng.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"channel send inside a range over a map emits in randomised iteration order; collect and sort keys first")
			return false
		case *ast.CallExpr:
			obj := callee(pass.Info, n)
			if obj == nil {
				return true
			}
			if emissionNames[strings.ToLower(obj.Name())] {
				pass.Reportf(n.Pos(),
					"%s call inside a range over a map emits in randomised iteration order; collect and sort keys first",
					obj.Name())
				return false
			}
		}
		return true
	})
}
