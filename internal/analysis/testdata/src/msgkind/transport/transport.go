// Package transport is a fixture modelling the repository's transport census.
package transport

type Census struct{ sent map[string]int }

func (c *Census) CountSent(kind string) int  { return c.sent[kind] }
func (c *Census) SentByKind() map[string]int { return c.sent }

type Body struct {
	Action int64
	Exc    string
}

type Message struct {
	From, To int64
	Kind     string
	Action   int64
	Body     Body
	Payload  any
}

func Send(Message) error { return nil }
