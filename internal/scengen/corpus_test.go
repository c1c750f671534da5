package scengen

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCorpusReplay replays every checked-in corpus program through the full
// differential oracle under plain `go test` — no fuzzing required. The corpus
// holds two kinds of file: curated seed programs covering the grammar's
// shapes, and shrunk repros of confirmed past divergences (fail-seed*.json,
// promoted by hand from testdata/repros or a scenfuzz -out directory), which
// must stay fixed forever.
//
// Cases run sequentially: the goroutine-leak check inside Check would see a
// concurrent sibling's transient goroutines as leaks.
func TestCorpusReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay is seconds-long; skipped in -short")
	}
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty corpus: testdata/corpus must hold the seed programs")
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			p, err := Decode(data)
			if err != nil {
				t.Fatalf("corrupt corpus file: %v", err)
			}
			if rep := Check(p, Options{}); rep.Failed() {
				t.Fatalf("corpus divergence:\n%s", rep)
			}
		})
	}
}
