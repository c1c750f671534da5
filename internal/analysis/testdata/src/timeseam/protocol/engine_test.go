package protocol

import "time"

// Test files are exempt: they drive schedules, they are not replayed by them.
func testStamp() time.Time { return time.Now() }
