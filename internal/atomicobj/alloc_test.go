//go:build !race

// Allocation counts are gated on the ordinary build only, like the other
// alloc gates: a -race build is not the one the benchmark runs.

package atomicobj

import (
	"fmt"
	"testing"
)

// TestTxnAllocs gates the transaction path on a warm store. The `atomic`
// row is one member's body in the benchmark's `atomic` workload: 64 Adds over
// 4 hot counters and 64 Updates over 4 private keys, interleaved, then
// Commit. The `nested` row has a child lock a key, write it 16 times and
// commit, after which the parent writes it 16 more times. The undo log holds
// one pre-image per key per lock tenure; when it logged every write, `atomic`
// kept 64 records and grew its slice seven times.
func TestTxnAllocs(t *testing.T) {
	inc := func(v any) (any, error) { return v.(int) + 1, nil }
	const keys, ops = 4, 64
	hot := make([]string, keys)
	priv := make([]string, keys)
	for k := range hot {
		hot[k] = fmt.Sprintf("hot/%d", k)
		priv[k] = fmt.Sprintf("priv/%d", k)
	}
	for _, tc := range []struct {
		name string
		// body runs one transaction and returns the undo records its root
		// held for one key just before committing, and how many it wanted.
		body func(s *Store) (got, want int)
		max  float64
	}{
		{"atomic", func(s *Store) (int, int) {
			tx := s.Begin()
			for i := 0; i < ops; i++ {
				if err := tx.Add(hot[i%keys], 1); err != nil {
					t.Fatal(err)
				}
				if err := tx.Update(priv[i%keys], inc); err != nil {
					t.Fatal(err)
				}
			}
			n := len(tx.undo)
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			return n, keys
		}, 79},
		{"nested", func(s *Store) (int, int) {
			tx := s.Begin()
			child, err := tx.BeginChild()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 16; i++ {
				if err := child.Write("nested", i); err != nil {
					t.Fatal(err)
				}
			}
			if err := child.Commit(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 16; i++ {
				if err := tx.Write("nested", i); err != nil {
					t.Fatal(err)
				}
			}
			n := 0
			for _, rec := range tx.undo {
				if rec.key == "nested" {
					n++
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			return n, 1
		}, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore()
			seed := s.Begin()
			for k := range priv {
				if err := seed.Write(priv[k], 0); err != nil {
					t.Fatal(err)
				}
			}
			if err := seed.Commit(); err != nil {
				t.Fatal(err)
			}
			// Past the point where the private values are below 256 and
			// box without allocating.
			for i := 0; i < 20; i++ {
				tc.body(s)
			}
			if got, want := tc.body(s); got != want {
				t.Errorf("undo log holds %d records before commit, want %d", got, want)
			}
			if got := testing.AllocsPerRun(100, func() { tc.body(s) }); got > tc.max {
				t.Errorf("%.1f allocations per transaction, want at most %.0f", got, tc.max)
			} else {
				t.Logf("%.1f allocations per transaction", got)
			}
		})
	}
}
