package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

const fixtureSrc = `package protocol

type State int

const (
	StateNormal State = iota + 1
	StateExceptional
	StateSuspended
	StateReady
)

func describe(s State) string {
	switch s {
	case StateNormal:
		return "N"
	}
	return ""
}
`

// TestAnalyzeConfig drives analyzeConfig exactly as go vet does: a vet.cfg
// naming the package sources, findings on stderr, a vetx output stamp.
func TestAnalyzeConfig(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "protocol.go")
	if err := os.WriteFile(src, []byte(fixtureSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	vetx := filepath.Join(dir, "vet.out")
	cfg := vetConfig{
		ID:         "repro/internal/protocol",
		Compiler:   "gc",
		Dir:        dir,
		ImportPath: "repro/internal/protocol",
		GoFiles:    []string{src},
		VetxOutput: vetx,
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(cfgPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	diags, err := analyzeConfig(cfgPath, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d findings, expected 1: %v", len(diags), diags)
	}
	if d := diags[0]; d.Analyzer != "exhaustive" || !strings.Contains(d.Message, "missing cases") {
		t.Errorf("unexpected finding: %v", d)
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("vetx output was not written: %v", err)
	}

	// A VetxOnly dependency outside the module (ModulePath empty, as the go
	// command writes for stdlib and external deps) is stamped with an empty
	// fact set and not analyzed.
	cfg.VetxOnly = true
	cfg.VetxOutput = filepath.Join(dir, "vetonly.out")
	data, err = json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfgPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	diags, err = analyzeConfig(cfgPath, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("VetxOnly package produced findings: %v", diags)
	}
	if _, err := os.Stat(cfg.VetxOutput); err != nil {
		t.Errorf("VetxOnly output was not written: %v", err)
	}
}

// TestVetxFactsFlow checks the driver's side of the fact channel: an
// in-module VetxOnly package is analyzed for facts, its exported facts land
// in the VetxOutput file, and they decode under the current version tag.
func TestVetxFactsFlow(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "base.go")
	const baseSrc = `package base

//caa:noalloc
func Fast() int { return 1 }
`
	if err := os.WriteFile(src, []byte(baseSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	vetx := filepath.Join(dir, "vet.out")
	cfg := vetConfig{
		ID:         "repro/internal/base",
		Compiler:   "gc",
		Dir:        dir,
		ImportPath: "repro/internal/base",
		ModulePath: "repro",
		GoFiles:    []string{src},
		VetxOutput: vetx,
		VetxOnly:   true,
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(cfgPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	diags, err := analyzeConfig(cfgPath, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("VetxOnly package produced findings: %v", diags)
	}
	raw, err := os.ReadFile(vetx)
	if err != nil {
		t.Fatalf("vetx output was not written: %v", err)
	}
	fs, ok := analysis.DecodeFacts(raw)
	if !ok {
		t.Fatalf("vetx output does not decode as facts: %q", raw)
	}
	if _, ok := fs.Facts["noalloc"]["Fast"]; !ok {
		t.Errorf("noalloc fact for Fast not exported; got %v", fs.Facts)
	}
}

func TestRelativizeFinding(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	in, err := json.Marshal(jsonFinding{
		File: filepath.Join(cwd, "internal", "x.go"), Line: 3, Col: 1,
		Analyzer: "seam", Message: "m",
	})
	if err != nil {
		t.Fatal(err)
	}
	var out jsonFinding
	if err := json.Unmarshal([]byte(relativizeFinding(string(in))), &out); err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join("internal", "x.go"); out.File != want {
		t.Errorf("File = %q, want %q", out.File, want)
	}

	// Paths outside the invocation directory and non-JSON lines pass through.
	outside := `{"file":"/nowhere/else/x.go","line":1,"col":1,"analyzer":"seam","message":"m","suppressed":false}`
	if got := relativizeFinding(outside); got != outside {
		t.Errorf("outside path rewritten: %s", got)
	}
	if got := relativizeFinding("not json"); got != "not json" {
		t.Errorf("non-JSON line rewritten: %s", got)
	}
}

func TestSelectAnalyzers(t *testing.T) {
	names := func(as []*analysis.Analyzer) string {
		var out []string
		for _, a := range as {
			out = append(out, a.Name)
		}
		return strings.Join(out, ",")
	}
	run := func(args ...string) string {
		fs := flag.NewFlagSet("protolint", flag.PanicOnError)
		toggles := make(map[string]*bool)
		for _, a := range analysis.All() {
			toggles[a.Name] = fs.Bool(a.Name, false, "")
		}
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return names(selectAnalyzers(fs, toggles))
	}

	if got := run(); got != "exhaustive,msgkind,determinism,seam,timeseam,locksend,lockorder,resetcheck,noalloc" {
		t.Errorf("default selection = %s", got)
	}
	if got := run("-exhaustive", "-seam"); got != "exhaustive,seam" {
		t.Errorf("positive selection = %s", got)
	}
	if got := run("-locksend=false"); got != "exhaustive,msgkind,determinism,seam,timeseam,lockorder,resetcheck,noalloc" {
		t.Errorf("negative selection = %s", got)
	}
}
