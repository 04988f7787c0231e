package analysis

// Cross-package golden tests: multi-package fixture modules under
// testdata/src/<name>/ (packages <name>/a, <name>/b) exercise the
// module-wide summary engine. Each case below carries at least one
// finding that exists only because a summary crossed a package
// boundary — deleting the engine would turn these fixtures silent, not
// noisy, so the plain single-package goldens cannot cover them.

import (
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// loadFixtureModule loads a multi-package fixture tree from
// testdata/src/<name>/ under the module path <name> and collects want
// specs across every package.
func loadFixtureModule(t *testing.T, name string) (*Module, []*wantSpec) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	mod, err := LoadFixtureModule(dir, name)
	if err != nil {
		t.Fatalf("loading fixture module %s: %v", dir, err)
	}
	var wants []*wantSpec
	for _, pkg := range mod.Packages {
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
					pos := mod.Fset.Position(c.Pos())
					wants = append(wants, &wantSpec{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return mod, wants
}

// TestCrossPackageFixtures runs each summary-consuming analyzer over its
// two-package fixture module.
func TestCrossPackageFixtures(t *testing.T) {
	cases := []struct{ fixture, analyzer string }{
		{"poolown_xpkg", "poolown"},
		{"splitbudget_xpkg", "splitbudget"},
		{"stagekey_xpkg", "stagekey"},
	}
	for _, c := range cases {
		t.Run(c.fixture, func(t *testing.T) {
			mod, wants := loadFixtureModule(t, c.fixture)
			if len(mod.Packages) < 2 {
				t.Fatalf("fixture %s loaded %d packages, want at least 2", c.fixture, len(mod.Packages))
			}
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want comments", c.fixture)
			}
			checkGolden(t, Run(mod, []*Analyzer{analyzerByName(t, c.analyzer)}), wants)
		})
	}
}

// TestOnlySubsetMatchesFullRun pins the -only contract on the fixpoint
// engine: a subset run must render byte-identical findings to the
// corresponding slice of a full-registry run. Summaries are computed
// from the whole module either way, so restricting the analyzer set
// must not change what any one analyzer sees — the fixture's seeded
// cross-package oversubscription is exactly the finding that would
// silently vanish if a subset run fell back to shallower summaries.
func TestOnlySubsetMatchesFullRun(t *testing.T) {
	slice := func(analyzers []*Analyzer) []string {
		mod, _ := loadFixtureModule(t, "splitbudget_xpkg")
		var out []string
		for _, d := range Run(mod, analyzers) {
			if d.Analyzer == "splitbudget" {
				out = append(out, d.String())
			}
		}
		return out
	}
	fromFull := slice(DefaultAnalyzers())
	fromSubset := slice([]*Analyzer{analyzerByName(t, "splitbudget")})
	if len(fromFull) == 0 {
		t.Fatal("full-registry run produced no splitbudget findings; the fixture is defanged")
	}
	if !reflect.DeepEqual(fromFull, fromSubset) {
		t.Errorf("-only slice diverged from the full run:\nfull:   %v\nsubset: %v", fromFull, fromSubset)
	}
}
