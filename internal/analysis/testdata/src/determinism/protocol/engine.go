// Package protocol is a fixture for a deterministic package: it is reachable
// from the explorer, so global randomness and map-ordered emission are
// findings.
package protocol

import "math/rand"

type msg struct{ to int }

func jitter() int {
	return rand.Intn(4) // want `uses the global random source`
}

func seeded(seed int64) int {
	// Methods on a seeded *rand.Rand are exactly how deterministic
	// interleaving is meant to work.
	r := rand.New(rand.NewSource(seed))
	return r.Intn(4)
}

func flood(out chan msg, peers map[int]bool) {
	for p := range peers {
		out <- msg{to: p} // want `randomised iteration order`
	}
}

func floodSorted(out chan msg, peers []int) {
	for _, p := range peers {
		out <- msg{to: p}
	}
}

func send(m msg) {}

func notify(peers map[int]bool) {
	for p := range peers {
		send(msg{to: p}) // want `randomised iteration order`
	}
}

func tally(peers map[int]bool) int {
	// Pure aggregation over a map is order-independent and fine.
	n := 0
	for range peers {
		n++
	}
	return n
}
