package harness

import "msgkind/trace"

// Test files are exempt: synthetic kinds fail the test itself if mistyped.
func testCounts(l *trace.Log) int { return l.CountSends("synthetic.kind") }

// A Kind* constant declared in a test file joins no census universe.
const KindSynthetic = "test.synthetic"
