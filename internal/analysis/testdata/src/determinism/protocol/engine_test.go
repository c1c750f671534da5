package protocol

import "math/rand"

// Test files are exempt: they drive schedules, they are not replayed by them.
func testJitter() int { return rand.Intn(4) }
