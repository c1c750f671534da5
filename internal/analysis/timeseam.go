package analysis

import "go/ast"

// timeseamPkgs are the clock-seam packages: every duration they wait out
// (heartbeats and polls, failure-detector timeouts, retransmission, run
// timeouts, link latency) must be armed through vclock.Clock, so an injected
// vclock.Virtual puts the whole stack on virtual time and a partition/churn
// scenario that waits out tens of detector periods costs microseconds of wall
// clock. One direct time.Sleep hidden anywhere on that path is a wait the
// virtual clock cannot count: it moves on while the sleeper is neither
// parked on it nor holding a token. (A channel timer would be the same hole,
// and needs no lint: vclock.Clock has no method that returns a channel.)
//
// vclock itself implements the seam (its Real clock is the one place the
// runtime timers belong), and transport/conformancetest is a test harness
// that legitimately paces real backends; both sit outside this set, as does
// every _test.go file.
var timeseamPkgs = map[string]bool{
	"fifo":       true,
	"netsim":     true,
	"group":      true,
	"membership": true,
	"transport":  true,
	"core":       true,
}

// bannedSeamTimeFuncs are the time-package calls that read the wall clock or
// arm a runtime timer directly. Pure value constructors (time.Duration
// arithmetic, time.Unix) stay legal: they wait for nothing.
var bannedSeamTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// TimeSeamAnalyzer keeps the clock-seam packages on vclock.Clock: no direct
// time.Now/Sleep/After/AfterFunc/NewTimer/NewTicker (and friends) outside test
// files.
var TimeSeamAnalyzer = &Analyzer{
	Name: "timeseam",
	Doc: "clock-seam packages (fifo, netsim, transport, group, membership, core) must arm " +
		"timers through vclock.Clock, never the time package directly",
	Run: runTimeSeam,
}

func runTimeSeam(pass *Pass) {
	if !timeseamPkgs[pass.PkgName()] {
		return
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := pkgFunc(pass.Info, call, "time"); ok && bannedSeamTimeFuncs[name] {
				pass.Reportf(call.Pos(),
					"call to time.%s in clock-seam package %s bypasses the virtual-time seam; take a vclock.Clock and use its Now/AfterFunc/Sleep",
					name, pass.PkgName())
			}
			return true
		})
	}
}
