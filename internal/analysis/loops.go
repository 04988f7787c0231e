package analysis

import (
	"go/ast"
	"strings"
)

// This file holds the hotness predicate that scopes intrange: which
// functions run per displayed or captured frame, where fixed-point
// arithmetic lives and an overflow proof pays for itself. A function is
// hot when
//
//   - its package is on the built-in hot list (the pipeline packages whose
//     loops run per displayed or captured frame), or
//   - its doc comment carries a //hot directive.
//
// The //hot convention lets latency-critical code outside the built-in
// list (e.g. display.RowAverage) opt into the same scrutiny. The canonical
// spelling is `//hot:<why>` with no space after the colon — that is the
// directive-comment form gofmt preserves verbatim; a bare `//hot` is also
// recognized but gofmt reformats it into prose.

// hotPackages are the path elements under internal/ whose packages are hot
// by construction: every displayed frame is muxed and every capture demuxed
// through their loops at 30–120 Hz.
var hotPackages = []string{"core", "camera", "frame", "waveform", "hvs", "parallel", "fixed"}

// isHotPackagePath reports whether the import path names a built-in hot
// package.
func isHotPackagePath(path string) bool {
	for _, name := range hotPackages {
		if strings.HasSuffix(path, "internal/"+name) {
			return true
		}
	}
	return false
}

// hasHotDirective reports whether the comment group contains a //hot line
// (canonically "//hot:<why>", the gofmt-stable directive form; bare "//hot"
// is tolerated).
func hasHotDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := c.Text
		if text == "//hot" || strings.HasPrefix(text, "//hot ") || strings.HasPrefix(text, "//hot:") {
			return true
		}
	}
	return false
}
