package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strconv"
	"strings"
)

// kindsFact is msgkind's package-level fact: the values of the Kind* string
// constants the package declares, together with those its dependencies'
// facts carry. Facts arrive only from direct dependencies, so each package
// re-exports the union and the universe reaches importers transitively.
type kindsFact struct {
	Kinds []string `json:"kinds,omitempty"`
}

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
// the value of a package-level Kind* string constant declared in the package
// or one it depends on. A typo here ("Ack" for "ACK") silently zeroes a
// measured count and breaks the §4.4 message-count comparison. Because the
// universe is read from the declarations, a newly declared wire kind is in
// it by construction. Test files are exempt: they may census synthetic kinds.
var MsgKindAnalyzer = &Analyzer{
	Name: "msgkind",
	Doc: "message-kind and census-key string literals must be declared Kind* " +
		"constants so measured counts line up with the paper's tables",
	Run: runMsgKind,
}

func runMsgKind(pass *Pass) {
	kinds := kindUniverse(pass)
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
				checkCensusCall(pass, kinds, n)
			case *ast.IndexExpr:
				checkCensusIndex(pass, kinds, n)
			case *ast.CompositeLit:
				checkSendEventLit(pass, kinds, n)
				checkTransportMessageLit(pass, kinds, n)
			}
			return true
		})
	}
}

// checkCensusCall validates the kind argument of the census count APIs.
func checkCensusCall(pass *Pass, kinds map[string]bool, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	isCensusAPI := isMethodNamed(pass.Info, call, "trace", "Log", "CountSends") ||
		isMethodNamed(pass.Info, call, "transport", "Census", "CountSent")
	if !isCensusAPI {
		return
	}
	checkKindExpr(pass, kinds, call.Args[0], "census lookup")
}

// checkCensusIndex validates string keys used to index the map returned by
// Census() or SentByKind() directly.
func checkCensusIndex(pass *Pass, kinds map[string]bool, idx *ast.IndexExpr) {
	call, ok := ast.Unparen(idx.X).(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Census" && sel.Sel.Name != "SentByKind") {
		return
	}
	checkKindExpr(pass, kinds, idx.Index, "census lookup")
}

// checkSendEventLit validates trace.Event{Kind: EvSend, Label: "..."}
// composite literals: for send events the Label is the census key.
func checkSendEventLit(pass *Pass, kinds map[string]bool, lit *ast.CompositeLit) {
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
		checkKindExpr(pass, kinds, label, "EvSend Label")
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
func checkTransportMessageLit(pass *Pass, kinds map[string]bool, lit *ast.CompositeLit) {
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
		checkKindExpr(pass, kinds, kind, "transport.Message Kind")
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
func checkKindExpr(pass *Pass, kinds map[string]bool, e ast.Expr, context string) {
	if _, isLit := ast.Unparen(e).(*ast.BasicLit); !isLit {
		return
	}
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	val := constant.StringVal(tv.Value)
	if kinds[val] {
		return
	}
	pass.Reportf(e.Pos(),
		"%s uses undeclared message kind %s (declared kinds: %s); use the Kind* constants",
		context, strconv.Quote(val), strings.Join(sortedKeys(kinds), ", "))
}

// kindUniverse returns the message kinds visible to the package, its own
// Kind* declarations plus its dependencies' kinds facts, and exports them as
// the package's fact.
func kindUniverse(pass *Pass) map[string]bool {
	kinds := make(map[string]bool)
	for _, path := range pass.FactPackages() {
		var fact kindsFact
		if pass.ImportFact(path, "", &fact) {
			for _, k := range fact.Kinds {
				kinds[k] = true
			}
		}
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if ok && strings.HasPrefix(name, "Kind") && name != "Kind" &&
			c.Val().Kind() == constant.String && !pass.InTestFile(c.Pos()) {
			kinds[constant.StringVal(c.Val())] = true
		}
	}
	if len(kinds) > 0 {
		pass.ExportFact("", kindsFact{Kinds: sortedKeys(kinds)})
	}
	return kinds
}
