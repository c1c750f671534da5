// Package protocol is a fixture modelling the protocol message type the
// transport fabric carries, and the Kind* constants that declare its message
// kinds: the analyzers match it by package and type name, and msgkind reads
// the census universe from these declarations.
package protocol

import "msgkind/transport"

const (
	KindException  = "Exception"
	KindHaveNested = "HaveNested"
	KindAck        = "ACK"
	KindCommit     = "Commit"
)

type Msg struct {
	Kind string
}

func (Msg) Body() transport.Body { return transport.Body{} }
