// Package analysis is a self-contained static-analysis framework for the
// InFrame tree, built on the standard library only (go/parser, go/ast,
// go/types, go/importer) so it runs offline with no go.mod dependencies.
//
// The framework loads every package in the module, type-checks it, and runs
// a registry of named analyzers that enforce the pipeline's load-bearing
// invariants: bit-identical output at any worker count, saturating
// arithmetic at the [0,255] clipping boundary (InFrame §3.2), and NaN-free
// threshold decisions in the noise-energy demodulator. Screen–camera
// decoders live or die on reproducible numeric pipelines (cf. DeepLight,
// Revelio); the analyzers keep those guarantees as the codebase grows.
//
// A diagnostic can be suppressed with a directive comment on the same line
// or the line above:
//
//	//lint:ignore <analyzer> <reason>
//
// The directive suppresses only the named analyzer, and the reason is
// mandatory — a malformed or unknown-analyzer directive is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding, positioned for file:line:col reporting and
// attributed to the analyzer that produced it.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named invariant check. Run inspects a single type-checked
// package through the Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	// Name is the registry key, used in diagnostics and in
	// //lint:ignore directives.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run inspects one package.
	Run func(*Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	// Path is the package's import path (module-qualified for repo
	// packages); analyzers use it for path-scoped exemptions.
	Path string
	Pkg  *types.Package
	Info *types.Info

	// summaries is the module-wide fixpoint summary set (summaries.go),
	// shared across every pass of a Run; see Pass.moduleSummaries.
	summaries *moduleSummaries

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// DefaultAnalyzers returns the full registry, sorted by name. Every analyzer
// shipped here guards an invariant documented in DESIGN.md §Enforced
// invariants.
func DefaultAnalyzers() []*Analyzer {
	as := []*Analyzer{
		ClampAnalyzer,
		DetRandAnalyzer,
		FloatEqAnalyzer,
		GoroutineAnalyzer,
		MapRangeAnalyzer,
		Poolown,
		Stagekey,
		Splitbudget,
	}
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	return as
}

// Run applies every analyzer to every package of the module, applies
// //lint:ignore suppression, and returns the surviving diagnostics sorted
// by position. Malformed or unknown-analyzer directives, and directives
// that no longer suppress anything, are reported as diagnostics from the
// pseudo-analyzer "lint".
func Run(mod *Module, analyzers []*Analyzer) []Diagnostic {
	out, _ := run(mod, analyzers, nil)
	return out
}

// AnalyzerTiming is one row of RunTimed's wall-clock attribution: the
// cumulative time one analyzer spent across every package, plus the
// pseudo-row "summaries" for the shared fixpoint summary computation.
type AnalyzerTiming struct {
	Name    string
	Elapsed time.Duration
}

// RunTimed is Run plus per-analyzer wall-clock attribution. The clock is
// injected by the caller (the pipeline packages themselves are forbidden
// to read wall time — detrand enforces it — so the cmd layer passes
// time.Now in).
func RunTimed(mod *Module, analyzers []*Analyzer, now func() time.Time) ([]Diagnostic, []AnalyzerTiming) {
	return run(mod, analyzers, now)
}

func run(mod *Module, analyzers []*Analyzer, now func() time.Time) ([]Diagnostic, []AnalyzerTiming) {
	known := knownNames(analyzers)
	clock := now
	if clock == nil {
		clock = func() time.Time { return time.Time{} }
	}
	elapsed := make(map[string]time.Duration)
	t0 := clock()
	sums := mod.Summaries()
	elapsed["summaries"] = clock().Sub(t0)
	var out []Diagnostic
	for _, pkg := range mod.Packages {
		out = append(out, runPackage(mod.Fset, pkg, sums, analyzers, known, clock, elapsed)...)
	}
	sortDiagnostics(out)
	if now == nil {
		return out, nil
	}
	names := make([]string, 0, len(elapsed))
	for name := range elapsed {
		names = append(names, name)
	}
	sort.Strings(names)
	timings := make([]AnalyzerTiming, 0, len(names))
	for _, name := range names {
		timings = append(timings, AnalyzerTiming{Name: name, Elapsed: elapsed[name]})
	}
	return out, timings
}

// RunPackage applies the analyzers to one loaded package, honoring
// //lint:ignore directives, and returns the diagnostics sorted by position.
// It is the single-package core of Run, exposed for the fixture-driven
// analyzer tests; summaries are computed over that one package with the
// same fixpoint engine the whole-module run uses.
func RunPackage(fset *token.FileSet, pkg *Package, analyzers []*Analyzer) []Diagnostic {
	sums := computeSummaries(fset, []*Package{pkg})
	out := runPackage(fset, pkg, sums, analyzers, knownNames(analyzers), nil, nil)
	sortDiagnostics(out)
	return out
}

// knownNames is the set of analyzer names a directive may legitimately
// reference: the full registry plus whatever is being run (fixture-only
// analyzers included). The union matters for subset runs (-only): a
// directive naming a registered analyzer that merely is not running this
// time is neither unknown nor checkable for staleness.
func knownNames(analyzers []*Analyzer) map[string]bool {
	known := make(map[string]bool, len(analyzers))
	for _, a := range DefaultAnalyzers() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	return known
}

func runPackage(fset *token.FileSet, pkg *Package, sums *moduleSummaries, analyzers []*Analyzer, known map[string]bool, clock func() time.Time, elapsed map[string]time.Duration) []Diagnostic {
	dirs, out := collectDirectives(fset, pkg.Files, known)
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     pkg.Files,
			Path:      pkg.Path,
			Pkg:       pkg.Types,
			Info:      pkg.Info,
			summaries: sums,
		}
		pass.report = func(d Diagnostic) {
			if dirs.suppresses(d) {
				return
			}
			out = append(out, d)
		}
		if clock == nil {
			a.Run(pass)
		} else {
			t := clock()
			a.Run(pass)
			elapsed[a.Name] += clock().Sub(t)
		}
	}
	// Suppression hygiene: a directive whose analyzer ran but reported
	// nothing on the covered lines is stale — the code it excused has
	// moved or been fixed, and a dangling excuse will silently swallow
	// the next real finding there.
	out = append(out, dirs.unused(ran)...)
	return out
}

func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// --- //lint:ignore directives ---

const directivePrefix = "//lint:ignore"

// directive is one //lint:ignore occurrence. It suppresses the named
// analyzer on its own line and the following one, and records whether it
// ever did.
type directive struct {
	pos  token.Position
	name string
	used bool
}

// covers reports whether the directive's window includes line.
func (d *directive) covers(line int) bool {
	return line == d.pos.Line || line == d.pos.Line+1
}

// directiveIndex maps file → analyzer name → directives in that file.
type directiveIndex map[string]map[string][]*directive

func (idx directiveIndex) suppresses(d Diagnostic) bool {
	found := false
	for _, dir := range idx[d.Pos.Filename][d.Analyzer] {
		if dir.covers(d.Pos.Line) {
			dir.used = true
			found = true
		}
	}
	return found
}

// unused reports every directive naming an analyzer that ran over the
// package without it suppressing anything.
func (idx directiveIndex) unused(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, byName := range idx {
		for name, dirs := range byName {
			if !ran[name] {
				continue
			}
			for _, dir := range dirs {
				if dir.used {
					continue
				}
				out = append(out, Diagnostic{
					Pos:      dir.pos,
					Analyzer: "lint",
					Message: fmt.Sprintf(
						"//lint:ignore %s suppresses nothing here; delete the stale directive", name),
				})
			}
		}
	}
	return out
}

// collectDirectives scans every comment of the package for //lint:ignore
// directives. A directive suppresses the named analyzer on its own line and
// on the following line, so it works both as a trailing comment and as a
// standalone comment above the offending statement. Directives without a
// reason, or naming an analyzer that is not registered, are reported.
func collectDirectives(fset *token.FileSet, files []*ast.File, known map[string]bool) (directiveIndex, []Diagnostic) {
	idx := make(directiveIndex)
	var diags []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					diags = append(diags, Diagnostic{
						Pos:      pos,
						Analyzer: "lint",
						Message:  "malformed //lint:ignore directive: want \"//lint:ignore <analyzer> <reason>\"",
					})
					continue
				}
				name := fields[0]
				if !known[name] {
					diags = append(diags, Diagnostic{
						Pos:      pos,
						Analyzer: "lint",
						Message:  fmt.Sprintf("//lint:ignore names unknown analyzer %q", name),
					})
					continue
				}
				byName := idx[pos.Filename]
				if byName == nil {
					byName = make(map[string][]*directive)
					idx[pos.Filename] = byName
				}
				byName[name] = append(byName[name], &directive{pos: pos, name: name})
			}
		}
	}
	return idx, diags
}

// --- shared analyzer helpers ---

// pathHasElem reports whether the import path contains elem as a whole
// path element (e.g. pathHasElem("inframe/cmd/x", "cmd")).
func pathHasElem(path, elem string) bool {
	for _, e := range strings.Split(path, "/") {
		if e == elem {
			return true
		}
	}
	return false
}

// isPipelinePackage reports whether the package holds deterministic
// pipeline code: everything except commands and examples, which are
// allowed to touch wall clocks and ambient randomness at the edges.
func isPipelinePackage(path string) bool {
	return !pathHasElem(path, "cmd") && !pathHasElem(path, "examples")
}

// funcObj resolves a called expression to the function or method object it
// invokes, or nil.
func funcObj(info *types.Info, fun ast.Expr) *types.Func {
	switch e := ast.Unparen(fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[e].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[e.Sel].(*types.Func)
		return f
	}
	return nil
}

// isNamed reports whether t (after pointer indirection) is the named type
// pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}
