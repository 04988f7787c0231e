package analysis

// Tests for the hotness predicate that scopes intrange: the built-in
// hot-package list, and the path-dependent activation the fixture files
// cannot express on their own (their import path is fixed by the harness).

import (
	"go/ast"
	"testing"
)

func TestIsHotPackagePath(t *testing.T) {
	cases := []struct {
		path string
		hot  bool
	}{
		{"inframe/internal/core", true},
		{"inframe/internal/camera", true},
		{"inframe/internal/frame", true},
		{"inframe/internal/waveform", true},
		{"inframe/internal/hvs", true},
		{"inframe/internal/parallel", true},
		{"inframe/internal/fixed", true},
		{"inframe/internal/display", false},
		{"inframe/internal/metrics", false},
		{"inframe/cmd/inframe-bench", false},
		{"inframe/internal/core/sub", false}, // only the package itself, not children
		{"intrange", false},                  // fixture paths are cold by default
	}
	for _, c := range cases {
		if got := isHotPackagePath(c.path); got != c.hot {
			t.Errorf("isHotPackagePath(%q) = %v, want %v", c.path, got, c.hot)
		}
	}
}

// TestHotPathActivation pins that hotness follows the import path: the
// intrange fixture's notHotNarrow function (no //hot directive) is clean
// under the fixture's own path but flagged when the same sources are loaded
// as a built-in hot package.
func TestHotPathActivation(t *testing.T) {
	a := analyzerByName(t, "intrange")
	flagged := func(path string) bool {
		fset, pkg, _ := loadFixture(t, "intrange", path)
		var fn *ast.FuncDecl
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "notHotNarrow" {
					fn = fd
				}
			}
		}
		if fn == nil {
			t.Fatal("intrange fixture lost notHotNarrow")
		}
		first, last := fset.Position(fn.Pos()).Line, fset.Position(fn.End()).Line
		for _, d := range RunPackage(fset, pkg, []*Analyzer{a}) {
			if d.Pos.Line >= first && d.Pos.Line <= last {
				return true
			}
		}
		return false
	}
	if !flagged("inframe/internal/core") {
		t.Error("notHotNarrow not flagged under a built-in hot package path")
	}
	if flagged("intrange") {
		t.Error("notHotNarrow flagged under a cold path")
	}
}
