// Package protocol is a clock-seam fixture for a package behind
// protocol.Explore: a wall-clock read would make a replayed schedule differ
// from its original.
package protocol

import "time"

func stamp() time.Time {
	return time.Now() // want `call to time.Now`
}
