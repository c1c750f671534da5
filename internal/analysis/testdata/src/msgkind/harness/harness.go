// Package harness reads censuses with string keys: literals must be declared
// message-kind names, while named constants and dynamic keys pass. "Raise"
// is declared in crbaseline, which the harness reaches only through core.
package harness

import (
	"msgkind/core"
	"msgkind/protocol"
	"msgkind/trace"
	"msgkind/transport"
)

const envelopeKind = "harness.envelope"

var _ = core.Baseline

func counts(l *trace.Log, c *transport.Census) []int {
	return []int{
		l.CountSends("Exception"),
		l.CountSends("Excepton"), // want "undeclared message kind"
		l.Census()["HaveNested"],
		l.Census()["havenested"], // want "undeclared message kind"
		c.CountSent("ACK"),
		c.CountSent("Ack"), // want "undeclared message kind"
		c.SentByKind()["Raise"],
		c.SentByKind()["Rase"], // want "undeclared message kind"
		// Declared only in a test file: no wire kind.
		l.CountSends("test.synthetic"), // want "undeclared message kind"
		// Named constants pass: they are declared, not typo-prone literals.
		l.CountSends(envelopeKind),
	}
}

func record(l *trace.Log, k string) {
	l.Record(trace.Event{Kind: trace.EvSend, Label: "Commit"})
	l.Record(trace.Event{Kind: trace.EvSend, Label: "commit"}) // want "undeclared message kind"
	l.Record(trace.Event{Label: "free-form note"})             // not a send event
	l.Record(trace.Event{Kind: trace.EvSend, Label: k})        // dynamic labels pass
}

// Protocol messages entering the fabric directly, as a Body, must carry a
// declared kind and the Action routing tag; a protocol message boxed into
// Payload is reported; other payloads are control traffic and pass.
func sends(p protocol.Msg, k string) {
	_ = transport.Send(transport.Message{From: 1, To: 2, Kind: "Exception", Action: 9, Body: p.Body()})
	_ = transport.Send(transport.Message{From: 1, To: 2, Kind: "Excepton", Action: 9, Body: p.Body()}) // want "undeclared message kind"
	_ = transport.Send(transport.Message{From: 1, To: 2, Kind: "Exception", Body: p.Body()})           // want "enters the fabric untagged"
	_ = transport.Send(transport.Message{From: 1, To: 2, Kind: k, Action: 9, Body: p.Body()})          // dynamic kinds pass
	_ = transport.Send(transport.Message{From: 1, To: 2, Kind: "Exception", Action: 9, Payload: p})    // want "boxed into Message.Payload"
	_ = transport.Send(transport.Message{From: 1, To: 2, Kind: "conformance", Payload: "scratch"})     // non-protocol payload passes
}
