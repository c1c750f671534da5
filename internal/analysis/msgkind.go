package analysis

import (
	"go/ast"
	"go/constant"
	"strconv"
	"strings"

	"repro/internal/crbaseline"
	"repro/internal/group"
	"repro/internal/membership"
	"repro/internal/protocol"
)

// validKindNames is the closed universe of declared message-kind names. It is
// built from the kind constants themselves (not copies of their values), so
// the analyzer can never drift from the protocol: renaming or adding a kind
// updates the checker at compile time.
var validKindNames = func() map[string]bool {
	m := make(map[string]bool)
	for _, k := range []string{
		protocol.KindException, protocol.KindHaveNested, protocol.KindNestedCompleted,
		protocol.KindAck, protocol.KindCommit,

		protocol.KindCException, protocol.KindCProbe, protocol.KindCStatus,
		protocol.KindCCommit,

		// crbaseline.KindAck aliases protocol.KindAck ("ACK"); listing both
		// keeps the set complete if either family renames.
		crbaseline.KindRaise, crbaseline.KindAck, crbaseline.KindResolve,

		// Membership-layer wire kinds: heartbeats, the reliable layer's
		// envelope, view installation, and the rejoin/lease protocols. They
		// share the fabric with the protocol messages, so census lookups may
		// count them too.
		group.KindHeartbeat, group.KindEnvelope, membership.KindView,
		membership.KindRejoinRequest, membership.KindWelcome,
		membership.KindLeaseRequest, membership.KindLeaseGrant,
	} {
		m[k] = true
	}
	return m
}()

// kindDefiningPkgs are exempt: they declare the kind universes (and protocol
// additionally renders arbitrary kind strings in Msg.String's fallback).
var kindDefiningPkgs = map[string]bool{
	"protocol":   true,
	"crbaseline": true,
	"group":      true,
	"membership": true,
}

// MsgKindAnalyzer validates message-kind and census-key string literals
// outside the kind-defining packages: a literal passed to a census lookup
// (trace.Log.CountSends, transport.Census.CountSent, indexing a Census() /
// SentByKind() result) or used as the Label of an EvSend trace event must be
// one of the declared Kind* constants. A typo here ("Ack" for "ACK") silently
// zeroes a measured count and breaks the §4.4 message-count comparison.
// Test files are exempt: they may census synthetic kinds.
var MsgKindAnalyzer = &Analyzer{
	Name: "msgkind",
	Doc: "message-kind and census-key string literals must be declared Kind* " +
		"constants so measured counts line up with the paper's tables",
	Run: runMsgKind,
}

func runMsgKind(pass *Pass) {
	if kindDefiningPkgs[pass.PkgName()] {
		return
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			// Tests may census synthetic kinds; a typo there fails the test
			// itself rather than silently skewing a measured count.
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCensusCall(pass, n)
			case *ast.IndexExpr:
				checkCensusIndex(pass, n)
			case *ast.CompositeLit:
				checkSendEventLit(pass, n)
				checkTransportMessageLit(pass, n)
			}
			return true
		})
	}
}

// checkCensusCall validates the kind argument of the census count APIs.
func checkCensusCall(pass *Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	isCensusAPI := isMethodNamed(pass.Info, call, "trace", "Log", "CountSends") ||
		isMethodNamed(pass.Info, call, "transport", "Census", "CountSent")
	if !isCensusAPI {
		return
	}
	checkKindExpr(pass, call.Args[0], "census lookup")
}

// checkCensusIndex validates string keys used to index the map returned by
// Census() or SentByKind() directly.
func checkCensusIndex(pass *Pass, idx *ast.IndexExpr) {
	call, ok := ast.Unparen(idx.X).(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Census" && sel.Sel.Name != "SentByKind") {
		return
	}
	checkKindExpr(pass, idx.Index, "census lookup")
}

// checkSendEventLit validates trace.Event{Kind: EvSend, Label: "..."}
// composite literals: for send events the Label is the census key.
func checkSendEventLit(pass *Pass, lit *ast.CompositeLit) {
	tv, ok := pass.Info.Types[lit]
	if !ok {
		return
	}
	pkgName, typeName, ok := namedOf(tv.Type)
	if !ok || pkgName != "trace" || typeName != "Event" {
		return
	}
	var isSend bool
	var label ast.Expr
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		switch key.Name {
		case "Kind":
			if c := constObj(pass.Info, kv.Value); c != nil && c.Name() == "EvSend" {
				isSend = true
			}
		case "Label":
			label = kv.Value
		}
	}
	if isSend && label != nil {
		checkKindExpr(pass, label, "EvSend Label")
	}
}

// checkTransportMessageLit validates transport.Message composite literals
// that put a protocol message on the fabric directly, as its Body: the Kind,
// when a bare string literal, must be a declared kind, and the literal must
// set the Action routing tag — an untagged protocol message cannot be
// demultiplexed by a shared-transport receiver, and its sends fall out of any
// per-action census cut. A protocol.Msg in Payload is reported too: it would
// be boxed, and no codec translates it. Envelope-building layers (group,
// transport itself) are exempt via kindDefiningPkgs/test-file filtering
// above; other payloads pass untouched (conformance traffic, control
// metadata).
func checkTransportMessageLit(pass *Pass, lit *ast.CompositeLit) {
	tv, ok := pass.Info.Types[lit]
	if !ok {
		return
	}
	pkgName, typeName, ok := namedOf(tv.Type)
	if !ok || pkgName != "transport" || typeName != "Message" {
		return
	}
	var kind ast.Expr
	hasAction, hasBody := false, false
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		switch key.Name {
		case "Kind":
			kind = kv.Value
		case "Action":
			hasAction = true
		case "Body":
			hasBody = true
		case "Payload":
			if ptv, ok := pass.Info.Types[kv.Value]; ok {
				if ppkg, ptype, ok := namedOf(ptv.Type); ok && ppkg == "protocol" && ptype == "Msg" {
					pass.Reportf(kv.Value.Pos(),
						"protocol message boxed into Message.Payload: carry its Body by value")
				}
			}
		}
	}
	if !hasBody {
		return
	}
	if kind != nil {
		checkKindExpr(pass, kind, "transport.Message Kind")
	}
	if !hasAction {
		pass.Reportf(lit.Pos(),
			"protocol message enters the fabric untagged: set Message.Action so "+
				"multiplexed receivers can route it to the owning action")
	}
}

// checkKindExpr reports the expression when it is a bare string literal that
// is not a declared kind name. Named constants pass (they are declared
// somewhere, e.g. group's private envelope kind), as do dynamic expressions:
// the analyzer polices literals, where typos live.
func checkKindExpr(pass *Pass, e ast.Expr, context string) {
	if _, isLit := ast.Unparen(e).(*ast.BasicLit); !isLit {
		return
	}
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	val := constant.StringVal(tv.Value)
	if validKindNames[val] {
		return
	}
	pass.Reportf(e.Pos(),
		"%s uses undeclared message kind %s (declared kinds: %s); use the Kind* constants",
		context, strconv.Quote(val), strings.Join(sortedKindNames(), ", "))
}

func sortedKindNames() []string {
	// Render the protocol's own family first, then the baselines, in the
	// declaration order used above; a stable list keeps diagnostics diffable.
	return []string{
		protocol.KindException, protocol.KindHaveNested, protocol.KindNestedCompleted,
		protocol.KindAck, protocol.KindCommit,
		protocol.KindCException, protocol.KindCProbe, protocol.KindCStatus, protocol.KindCCommit,
		crbaseline.KindRaise, crbaseline.KindResolve,
		group.KindHeartbeat, group.KindEnvelope, membership.KindView,
		membership.KindRejoinRequest, membership.KindWelcome,
		membership.KindLeaseRequest, membership.KindLeaseGrant,
	}
}
