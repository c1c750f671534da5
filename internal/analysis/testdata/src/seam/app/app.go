// Package app sits outside the seam packages: raw message channels and direct
// netsim endpoint traffic bypass the transport's census, codec and fault
// hooks, so both are findings.
package app

import (
	"seam/netsim"
	"seam/protocol"
)

func privateFabric() chan protocol.Msg {
	return make(chan protocol.Msg, 4) // want `raw chan protocol.Msg`
}

func rawNetsim() chan netsim.Message {
	return make(chan netsim.Message) // want `raw chan netsim.Message`
}

func direct(e *netsim.Endpoint) netsim.Message {
	e.Send(netsim.Message{})          // want `direct netsim endpoint Send`
	e.SendTagged(netsim.Message{}, 7) // want `direct netsim endpoint SendTagged`
	return e.Recv()                   // want `direct netsim endpoint Recv`
}

// Attaching a deliver function to a node is the fabric's job (the transport
// fixture package does it without a finding); looking a node up is not.
func attach(n *netsim.Network) {
	n.NodeFunc(1, func(netsim.Message) {}, nil) // want `NodeFunc attaches a private delivery function`
	n.Node(1)
}

// Channels of other element types are ordinary concurrency, not a fabric.
func scratch() chan int { return make(chan int, 1) }
