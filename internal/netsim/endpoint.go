package netsim

import (
	"repro/internal/ident"
)

// Endpoint is a node's attachment to the network: the address messages are
// sent from and the function the network calls with each message that
// arrives. NodeFunc endpoints hand arrivals straight to their owner (a
// transport port, whose handler runs on the delivering goroutine); Node
// endpoints keep netsim's own unbounded inbox (a fifo.Chan, so a send never
// blocks on a slow receiver) and Recv channel behind the same function.
type Endpoint struct {
	id  ident.NodeID
	net *Network

	deliver func(Message)  // called once per arriving copy, by the sender or the pair's link
	closed  func()         // called once when the network shuts down
	out     <-chan Message // Recv channel; nil for NodeFunc endpoints
}

// ID returns the node identifier.
func (e *Endpoint) ID() ident.NodeID { return e.id }

// Send transmits a message from this endpoint to the named node.
func (e *Endpoint) Send(to ident.NodeID, kind string, payload any) error {
	return e.SendMessage(Message{To: to, Kind: kind, Payload: payload})
}

// SendTagged transmits a message carrying an action routing tag. The tag
// travels in the envelope, not the payload, so multiplexing receivers can
// route frames to the owning action without decoding them.
func (e *Endpoint) SendTagged(to ident.NodeID, kind string, action ident.ActionID, payload any) error {
	return e.SendMessage(Message{To: to, Kind: kind, Action: action, Payload: payload})
}

// SendMessage transmits m, stamped as sent from this endpoint, to m.To: the
// one send path, which Send and SendTagged wrap.
func (e *Endpoint) SendMessage(m Message) error {
	m.From = e.id
	return e.net.send(m)
}

// Recv returns the channel on which delivered messages arrive, in per-sender
// FIFO order (nil for NodeFunc endpoints). The channel is closed when the
// network shuts down; messages still queued at that point are discarded.
func (e *Endpoint) Recv() <-chan Message { return e.out }
