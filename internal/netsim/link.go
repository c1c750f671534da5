package netsim

import "repro/internal/fifo"

// newLink starts the serial delivery link for one ordered node pair, so that
// latency never reorders messages: each queued message waits its own latency
// in turn, then is handed to the destination endpoint. The wait is a
// Clock.Sleep under the message's pump token, which Sleep lends to the clock:
// a virtual clock may move while every link is only waiting. Caller holds n.mu.
func (n *Network) newLink(dst *Endpoint) *fifo.Pump[Message] {
	return fifo.Start(n.cfg.Clock, func(m Message) {
		if d := n.cfg.Latency(m.From, m.To); d > 0 {
			n.cfg.Clock.Sleep(d)
		}
		n.mu.Lock()
		n.stats.record(statDelivered, m.Kind)
		n.mu.Unlock()
		dst.deliver(m)
	}, nil)
}
