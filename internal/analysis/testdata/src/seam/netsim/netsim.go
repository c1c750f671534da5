// Package netsim is seam-exempt: it implements the simulated network that the
// transport seam is built on, so raw channels and endpoint traffic are its
// own plumbing.
package netsim

type Message struct{ Payload []byte }

type Endpoint struct{ ch chan Message }

func NewEndpoint() *Endpoint { return &Endpoint{ch: make(chan Message, 8)} }

func (e *Endpoint) Send(m Message)                     { e.ch <- m }
func (e *Endpoint) SendTagged(m Message, action int64) { e.ch <- m }
func (e *Endpoint) Recv() Message                      { return <-e.ch }

type Network struct{ eps map[int]*Endpoint }

func (n *Network) Node(id int) *Endpoint { return n.eps[id] }

func (n *Network) NodeFunc(id int, deliver func(Message), closed func()) *Endpoint {
	return n.eps[id]
}
