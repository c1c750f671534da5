// Package protocol is a fixture modelling the protocol message type the
// transport fabric carries: the analyzers match it by package and type name.
package protocol

import "msgkind/transport"

type Msg struct {
	Kind string
}

func (Msg) Body() transport.Body { return transport.Body{} }
