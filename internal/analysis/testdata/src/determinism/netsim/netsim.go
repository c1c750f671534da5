// Package netsim is outside the deterministic set: Explore never replays it,
// so a global random draw here is no finding.
package netsim

import "math/rand"

func Jitter(n int) int { return rand.Intn(n) }
