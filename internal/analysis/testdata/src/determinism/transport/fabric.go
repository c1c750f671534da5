// fabric.go is not the exempt file: the in-process fabrics in the same
// package stay schedule-replay safe.
package transport

import "math/rand"

func pickPeer(n int) int {
	return rand.Intn(n) // want `uses the global random source`
}
