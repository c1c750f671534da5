// Package transport is seam-exempt: it owns the seam and may build its
// internal delivery plumbing out of raw channels.
package transport

import (
	"seam/netsim"
	"seam/protocol"
)

type port struct{ ch chan protocol.Msg }

func newPort() *port { return &port{ch: make(chan protocol.Msg, 1)} }

func bind(n *netsim.Network, p *port) *netsim.Endpoint {
	return n.NodeFunc(1, func(netsim.Message) {}, nil)
}
