// tcp.go is the real-I/O exemption: the socket backend lives in the
// deterministic transport package for the shared seam types, but Explore
// never replays it.
package transport

import "math/rand"

func jitter(n int) int {
	return rand.Intn(n) // exempt file: no finding
}
