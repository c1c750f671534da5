// Package antest is a small analysistest-style harness for the protolint
// analyzers. It loads self-contained fixture packages from testdata/src,
// typechecks them with a recursive fixture importer (so fixtures can model the
// repository's package graph, including mini stand-ins for time, math/rand and
// sync), runs one analyzer, and compares its findings against the
//
//	// want "regexp"
//
// comments in the fixture sources. Both double-quoted and backquoted patterns
// are accepted, several per comment; a finding must land on the want comment's
// line and match its pattern, and every finding must be wanted.
package antest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run applies the analyzer to each fixture package (an import path under
// dir/src) and checks the findings against the fixtures' want comments.
//
// Cross-package facts flow exactly as they do under the real driver: before a
// fixture package is analyzed, its fixture imports are analyzed first (in
// dependency order, memoized), and the exported fact sets of its direct
// imports become the pass's imported FactStore (only those: go vet hands a
// package its direct dependencies' vetx files). Suppressed findings are
// dropped, matching the driver's pass/fail view; a finding that should be
// suppressed therefore shows up as "expected finding, got none" if its allow
// comment were honored — keep want comments on unsuppressed lines.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	l := &loader{root: filepath.Join(dir, "src"), fset: token.NewFileSet(), pkgs: make(map[string]*fixturePkg)}
	facts := make(analysis.FactStore)
	done := make(map[string]bool)
	for _, path := range pkgPaths {
		p, err := l.load(path)
		if err != nil {
			t.Fatalf("loading fixture package %s: %v", path, err)
		}
		analyzeDeps(t, l, p.pkg, a, facts, done)
		diags, exported := analysis.Run(l.fset, p.files, p.pkg, p.info, []*analysis.Analyzer{a}, directFacts(p.pkg, facts))
		facts[p.pkg.Path()] = exported
		done[p.pkg.Path()] = true
		var visible []analysis.Diagnostic
		for _, d := range diags {
			if !d.Suppressed {
				visible = append(visible, d)
			}
		}
		checkWants(t, l.fset, path, p.files, visible)
	}
}

// analyzeDeps runs the analyzer over pkg's fixture imports in dependency
// order, populating facts. Findings in dependencies are discarded here: each
// fixture package asserts its own findings when it is Run directly.
func analyzeDeps(t *testing.T, l *loader, pkg *types.Package, a *analysis.Analyzer, facts analysis.FactStore, done map[string]bool) {
	t.Helper()
	for _, imp := range pkg.Imports() {
		if done[imp.Path()] {
			continue
		}
		done[imp.Path()] = true
		analyzeDeps(t, l, imp, a, facts, done)
		p, ok := l.pkgs[imp.Path()]
		if !ok {
			continue
		}
		_, exported := analysis.Run(l.fset, p.files, p.pkg, p.info, []*analysis.Analyzer{a}, directFacts(p.pkg, facts))
		facts[imp.Path()] = exported
	}
}

// directFacts narrows the facts analyzed so far to pkg's direct imports.
func directFacts(pkg *types.Package, facts analysis.FactStore) analysis.FactStore {
	direct := make(analysis.FactStore)
	for _, imp := range pkg.Imports() {
		if fs, ok := facts[imp.Path()]; ok {
			direct[imp.Path()] = fs
		}
	}
	return direct
}

// fixturePkg is one loaded-and-typechecked fixture package.
type fixturePkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loader parses and typechecks fixture packages, resolving imports from the
// same tree so fixtures can import each other and the stdlib stand-ins.
type loader struct {
	root string
	fset *token.FileSet
	pkgs map[string]*fixturePkg
}

// Import implements types.Importer over the fixture tree.
func (l *loader) Import(path string) (*types.Package, error) {
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (l *loader) load(path string) (*fixturePkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typechecking %s: %w", path, err)
	}
	p := &fixturePkg{pkg: pkg, files: files, info: info}
	l.pkgs[path] = p
	return p, nil
}

// want is one expected finding.
type want struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// wantRE extracts the quoted patterns from a want comment:
// `// want "p1" "p2"` or backquoted equivalents.
var wantRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

func checkWants(t *testing.T, fset *token.FileSet, pkgPath string, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				idx := strings.Index(text, "want ")
				if idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range wantRE.FindAllString(text[idx+len("want "):], -1) {
					var pat string
					if strings.HasPrefix(q, "`") {
						pat = strings.Trim(q, "`")
					} else {
						var err error
						pat, err = strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.pattern.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected finding in %s: %s", d.Pos, pkgPath, d.Message)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}
