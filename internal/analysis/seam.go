package analysis

import (
	"go/ast"
	"go/types"
)

// messageTypes are the payload/envelope types whose channels constitute a
// private delivery fabric: wiring two objects together with a raw
// `make(chan protocol.Msg)` bypasses the transport seam's counting, tracing,
// fault injection and codec boundary.
var messageTypes = map[string]bool{
	"protocol.Msg":      true,
	"transport.Message": true,
	"netsim.Message":    true,
}

// seamExemptPkgs implement the seam and may therefore build its plumbing.
var seamExemptPkgs = map[string]bool{
	"transport": true,
	"netsim":    true,
}

// SeamAnalyzer keeps every cross-object message on the transport seam
// introduced by the fabric unification: outside internal/transport and
// internal/netsim, no raw message channels, no direct netsim endpoint
// traffic and no deliver function attached to a netsim node. Everything the engines exchange must flow through
// transport.Transport, where it is counted, traced and fault-injected.
// Test files are exempt (harnesses may capture messages in scratch channels).
var SeamAnalyzer = &Analyzer{
	Name: "seam",
	Doc: "cross-object messaging must go through transport.Transport: no raw " +
		"message channels or netsim endpoint use outside the seam packages",
	Run: runSeam,
}

func runSeam(pass *Pass) {
	if seamExemptPkgs[pass.PkgName()] {
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
			checkRawMessageChannel(pass, call)
			checkEndpointUse(pass, call)
			return true
		})
	}
}

// checkRawMessageChannel flags make(chan M) for the message types.
func checkRawMessageChannel(pass *Pass, call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) == 0 {
		return
	}
	if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	tv, ok := pass.Info.Types[call.Args[0]]
	if !ok || tv.Type == nil {
		return
	}
	ch, isChan := tv.Type.Underlying().(*types.Chan)
	if !isChan {
		return
	}
	pkgName, typeName, ok := namedOf(ch.Elem())
	if !ok || !messageTypes[pkgName+"."+typeName] {
		return
	}
	pass.Reportf(call.Pos(),
		"raw chan %s.%s builds a private delivery fabric; route messages through transport.Transport",
		pkgName, typeName)
}

// checkEndpointUse flags Send/SendTagged/Recv on netsim endpoints outside
// the seam, and Network.NodeFunc: attaching a deliver function to a node is
// how transport.Concurrent builds its ports, and anyone else doing it has
// built a fabric the seam cannot see.
func checkEndpointUse(pass *Pass, call *ast.CallExpr) {
	if isMethodNamed(pass.Info, call, "netsim", "Network", "NodeFunc") {
		pass.Reportf(call.Pos(),
			"netsim.Network.NodeFunc attaches a private delivery function to the network, bypassing the transport seam; bind a transport.Port")
		return
	}
	for _, method := range []string{"Send", "SendTagged", "Recv"} {
		if isMethodNamed(pass.Info, call, "netsim", "Endpoint", method) {
			pass.Reportf(call.Pos(),
				"direct netsim endpoint %s bypasses the transport seam (its census, codec and fault hooks); use a transport.Port",
				method)
			return
		}
	}
}
