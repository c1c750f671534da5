// Package pool exercises resetcheck's basic shapes: a complete Reset, a
// Reset missing a field, wholesale zeroing, an intentionally surviving field
// with a reasoned allow, and sync.Pool.Put of a Reset-less type.
package pool

import "sync"

// session clears every field: clean.
type session struct {
	id   int
	data []byte
	tags map[string]string
}

func (s *session) Reset() {
	s.id = 0
	s.data = s.data[:0]
	clear(s.tags)
}

// leaky forgets token.
type leaky struct {
	id    int
	token string // want `Reset does not clear field token`
}

func (l *leaky) Reset() {
	l.id = 0
}

// wipe zeroes the whole receiver: every field covered.
type wipe struct {
	a int
	b string
}

func (w *wipe) Reset() {
	*w = wipe{}
}

// watermark keeps its capacity across reuse, with the reason on record.
type watermark struct {
	buf []byte
	cap int //protolint:allow resetcheck capacity watermark deliberately survives reuse so re-presizing stays free
}

func (w *watermark) Reset() {
	w.buf = w.buf[:0]
}

// cleared clears the field its allow excuses, so the allow is stale.
type cleared struct {
	buf []byte //protolint:allow resetcheck capacity watermark survives reuse // want `allow resetcheck suppresses nothing`
}

func (c *cleared) Reset() {
	c.buf = nil
}

// signalled drains its wake-up channel in place: a receive covers the field,
// a channel that is only sent on does not.
type signalled struct {
	ready chan struct{}
	echo  chan struct{} // want `Reset does not clear field echo`
}

func (s *signalled) Reset() {
	select {
	case <-s.ready:
	default:
	}
}

// raw has no Reset at all: recycling it through a pool is flagged.
type raw struct{ n int }

var p sync.Pool

func recycle(s *session, r *raw) {
	p.Put(s)
	p.Put(r) // want `has no Reset method`
}
