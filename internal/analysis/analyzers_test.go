package analysis

// Golden-diagnostic tests: each analyzer runs over a fixture package under
// testdata/src/<analyzer>/ whose sources carry `// want "regex"` comments.
// The harness demands an exact match in both directions — every want must
// be hit by a diagnostic on its line, and every diagnostic must be covered
// by a want — so each fixture is simultaneously the positive and the
// negative test set for its analyzer.

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// wantSpec is one expected diagnostic: a regexp anchored to a fixture line.
type wantSpec struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// loadFixture parses and type-checks testdata/src/<name> under the given
// import path and collects its want specs.
func loadFixture(t *testing.T, name, path string) (*token.FileSet, *Package, []*wantSpec) {
	t.Helper()
	fset := token.NewFileSet()
	dir := filepath.Join("testdata", "src", name)
	pkg, err := LoadPackage(fset, dir, path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	var wants []*wantSpec
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", m[1], err)
				}
				pos := fset.Position(c.Pos())
				wants = append(wants, &wantSpec{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return fset, pkg, wants
}

// checkGolden verifies the 1:1 correspondence between diagnostics and wants.
func checkGolden(t *testing.T, diags []Diagnostic, wants []*wantSpec) {
	t.Helper()
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range DefaultAnalyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("analyzer %q not registered", name)
	return nil
}

// TestAnalyzerFixtures runs every analyzer against its own fixture package.
func TestAnalyzerFixtures(t *testing.T) {
	for _, a := range DefaultAnalyzers() {
		t.Run(a.Name, func(t *testing.T) {
			fset, pkg, wants := loadFixture(t, a.Name, a.Name)
			if len(wants) == 0 {
				t.Fatalf("fixture for %s has no want comments", a.Name)
			}
			checkGolden(t, RunPackage(fset, pkg, []*Analyzer{a}), wants)
		})
	}
}

// TestIgnoreDirective runs detrand and floateq together over the ignore
// fixture: a //lint:ignore must silence exactly the analyzer it names
// (trailing or on the preceding line) and nothing else.
func TestIgnoreDirective(t *testing.T) {
	fset, pkg, wants := loadFixture(t, "ignore", "ignore")
	diags := RunPackage(fset, pkg, []*Analyzer{
		analyzerByName(t, "detrand"),
		analyzerByName(t, "floateq"),
	})
	checkGolden(t, diags, wants)
}

// TestDirectiveHygiene checks that a directive without a reason, a
// directive naming an unregistered analyzer, and a directive that no
// longer suppresses anything are all reported.
func TestDirectiveHygiene(t *testing.T) {
	fset, pkg, _ := loadFixture(t, "ignorebad", "ignorebad")
	diags := RunPackage(fset, pkg, DefaultAnalyzers())
	var malformed, unknown, stale bool
	for _, d := range diags {
		if d.Analyzer != "lint" {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		switch {
		case strings.Contains(d.Message, "malformed"):
			malformed = true
		case strings.Contains(d.Message, "unknown analyzer"):
			unknown = true
		case strings.Contains(d.Message, "suppresses nothing"):
			stale = true
		}
	}
	if !malformed {
		t.Error("missing-reason directive was not reported")
	}
	if !unknown {
		t.Error("unknown-analyzer directive was not reported")
	}
	if !stale {
		t.Error("stale directive was not reported as unused")
	}
}

// TestUnusedDirectiveScopedToRunSet pins the -only interaction: a subset
// run must not call a directive stale when its analyzer did not run, and
// must not call its name unknown either.
func TestUnusedDirectiveScopedToRunSet(t *testing.T) {
	fset, pkg, _ := loadFixture(t, "ignorebad", "ignorebad")
	diags := RunPackage(fset, pkg, []*Analyzer{analyzerByName(t, "detrand")})
	for _, d := range diags {
		if strings.Contains(d.Message, "suppresses nothing") {
			t.Errorf("floateq did not run, yet its directive was called stale: %s", d)
		}
		if strings.Contains(d.Message, `unknown analyzer "floateq"`) {
			t.Errorf("registered analyzer reported unknown in subset run: %s", d)
		}
	}
}

// TestPathExemptions re-loads fixtures under exempt import paths: the same
// sources that are flagged as pipeline code must be silent as the blessed
// concurrency engine or as a command.
func TestPathExemptions(t *testing.T) {
	cases := []struct {
		fixture, analyzer, path string
	}{
		{"goroutine", "goroutine", "inframe/internal/parallel"},
		{"detrand", "detrand", "inframe/cmd/inframe-bench"},
		{"detrand", "detrand", "inframe/examples/quickstart"},
	}
	for _, c := range cases {
		t.Run(c.analyzer+"@"+c.path, func(t *testing.T) {
			fset, pkg, _ := loadFixture(t, c.fixture, c.path)
			diags := RunPackage(fset, pkg, []*Analyzer{analyzerByName(t, c.analyzer)})
			for _, d := range diags {
				t.Errorf("exempt path %s still flagged: %s", c.path, d)
			}
		})
	}
}

// TestRepoIsLintClean loads the real module and runs the full registry: the
// tree must stay clean so `inframe-lint ./...` can gate verify.sh. A
// failure here names exactly the offending line.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide type-check in -short mode")
	}
	mod, err := LoadModule(".")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(mod.Packages) < 20 {
		t.Fatalf("loaded only %d packages, expected the whole module", len(mod.Packages))
	}
	analyzers := DefaultAnalyzers()
	if len(analyzers) != registrySize {
		t.Fatalf("self-lint ran %d analyzers, want %d", len(analyzers), registrySize)
	}
	for _, d := range Run(mod, analyzers) {
		t.Errorf("%s", d)
	}
}

// registrySize pins the registry: growing or shrinking it is a deliberate
// act that updates this constant, README § Lint, and DESIGN.md §5h
// together.
const registrySize = 8

// TestDefaultAnalyzersRegistry pins the registry contract: exactly
// registrySize analyzers, sorted, unique names, docs present.
func TestDefaultAnalyzersRegistry(t *testing.T) {
	as := DefaultAnalyzers()
	if len(as) != registrySize {
		t.Fatalf("registry has %d analyzers, want exactly %d (update registrySize, README § Lint and DESIGN.md §5h together)", len(as), registrySize)
	}
	seen := make(map[string]bool)
	for i, a := range as {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %d incomplete: %+v", i, a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if i > 0 && as[i-1].Name >= a.Name {
			t.Errorf("registry not sorted at %q", a.Name)
		}
	}
}

// TestDiagnosticString pins the file:line:col rendering the gate greps.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
		Analyzer: "clamp",
		Message:  "boom",
	}
	if got, want := d.String(), "x.go:3:7: clamp: boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestLoadPackageRejectsEmptyDir pins the loader error path.
func TestLoadPackageRejectsEmptyDir(t *testing.T) {
	fset := token.NewFileSet()
	if _, err := LoadPackage(fset, t.TempDir(), "empty"); err == nil {
		t.Fatal("LoadPackage on an empty dir did not fail")
	}
}

// TestSuppressionIsLineScoped builds a diagnostic index directly and checks
// the directive covers its own line and the next, nothing else.
func TestSuppressionIsLineScoped(t *testing.T) {
	fset, pkg, _ := loadFixture(t, "ignore", "ignore")
	known := map[string]bool{"detrand": true, "floateq": true}
	idx, diags := collectDirectives(fset, pkg.Files, known)
	if len(diags) != 0 {
		t.Fatalf("well-formed fixture produced directive diagnostics: %v", diags)
	}
	var file string
	var line int
	for f, byName := range idx {
		for _, dir := range byName["detrand"] {
			file, line = f, dir.pos.Line
		}
	}
	if file == "" {
		t.Fatal("no detrand directive found in index")
	}
	mk := func(l int, analyzer string) Diagnostic {
		return Diagnostic{Pos: token.Position{Filename: file, Line: l}, Analyzer: analyzer}
	}
	if !idx.suppresses(mk(line, "detrand")) {
		t.Error("directive does not suppress its own line")
	}
	if idx.suppresses(mk(line+5, "detrand")) {
		t.Error("directive suppresses a distant line")
	}
	if idx.suppresses(mk(line, "floateq")) {
		t.Error("directive suppresses an analyzer it does not name")
	}
}
