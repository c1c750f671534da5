package main

// metricDef declares one metric; BENCHMARK.json repeats these lists and the
// smoke test holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
}

// End-to-end metrics: the same eight on every workload. The bounds come from
// the A/A table in README.md: the four timings spread 6 to 16 % between runs
// of the same code on a two-core guest whose speed wanders, so they get the
// widest bound the benchmark contract allows; the four counts repeat to a
// fraction of a percent and are held tight.
var (
	mSetup      = metricDef{"setup_s", "s", "lower", 0.25}
	mRate       = metricDef{"actions_per_s", "1/s", "higher", 0.25}
	mP50        = metricDef{"action_p50_ms", "ms", "lower", 0.25}
	mP90        = metricDef{"action_p90_ms", "ms", "lower", 0.25}
	mMsgs       = metricDef{"msgs_per_action", "count", "lower", 0.02}
	mAllocs     = metricDef{"allocs_per_action", "count", "lower", 0.02}
	mAllocKB    = metricDef{"alloc_kb_per_action", "KB", "lower", 0.03}
	mRetainedKB = metricDef{"retained_kb_per_action", "KB", "lower", 0.05}

	endToEnd = []metricDef{mSetup, mRate, mP50, mP90, mMsgs, mAllocs, mAllocKB, mRetainedKB}
)
