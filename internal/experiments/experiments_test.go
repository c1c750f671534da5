package experiments

import (
	"strings"
	"testing"
)

// TestAllExperimentsMatch runs the complete harness and requires every
// "match" cell to read "yes" — the paper-vs-measured contract in one test.
func TestAllExperimentsMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment harness is not short")
	}
	tables, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 14 {
		t.Fatalf("experiments = %d, want 14", len(tables))
	}
	for _, tbl := range tables {
		matchCol := -1
		for i, h := range tbl.Header {
			if strings.HasPrefix(h, "match") {
				matchCol = i
			}
		}
		if matchCol == -1 {
			continue // measurement-only tables (E5, E13)
		}
		for _, row := range tbl.Rows {
			if row[matchCol] != "yes" {
				t.Errorf("%s: row %v does not match the paper", tbl.ID, row)
			}
		}
	}
}

func TestByID(t *testing.T) {
	tbl, err := ByID("e8")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "E8" {
		t.Errorf("ID = %q", tbl.ID)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id must error")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{
		ID:     "X",
		Title:  "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"1", "2"}, {"wide-cell", "3"}},
		Notes:  []string{"a note"},
	}
	text := tbl.Render()
	for _, want := range []string{"== X: demo ==", "long-header", "wide-cell", "note: a note"} {
		if !strings.Contains(text, want) {
			t.Errorf("Render missing %q:\n%s", want, text)
		}
	}
	md := tbl.Markdown()
	for _, want := range []string{"### X — demo", "| a | long-header |", "| --- | --- |", "*a note*"} {
		if !strings.Contains(md, want) {
			t.Errorf("Markdown missing %q:\n%s", want, md)
		}
	}
}

func TestSimCaseAgainstFormula(t *testing.T) {
	got, err := protoCount(5, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * (4 + 3 + 1); got != want {
		t.Errorf("protoCount(5,2,1) = %d, want %d", got, want)
	}
}
