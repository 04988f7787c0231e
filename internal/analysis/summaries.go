package analysis

// This file is the module-wide summary engine under the interprocedural
// analyzers (poolown, splitbudget, stagekey). Where the first
// generation of summaries was one hop and same-package — a function's
// summary reflected only its own body — the engine here computes
// summaries bottom-up over the whole module:
//
//   - packages are visited in import-DAG order (the order retained by the
//     loader), so every cross-package callee is fully summarized before
//     its callers are looked at;
//   - within one package, declarations are re-summarized until nothing
//     changes, so same-package call chains and cycles (mutual recursion)
//     reach a fixpoint;
//   - the iteration is budgeted: summaries start empty (the bottom of
//     their lattice) and only ever grow, so cutting the iteration off
//     leaves a partial summary that under-approximates — the analyzers
//     see fewer facts and stay silent, never wrong in the noisy
//     direction.
//
// The summary maps are keyed by *types.Func. That works across package
// boundaries because the loader resolves module-internal imports to the
// very *types.Package values being loaded (and standard-library imports
// through one process-wide importer), so a call site in package b and the
// declaration in package a agree on the callee's object identity.
//
// A Module computes its summaries at most once, on first use, and every
// analyzer pass shares the result — the whole-module self-lint
// type-checks and summarizes each package exactly once no matter how many
// analyzers run.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// maxSummaryRounds bounds the within-package fixpoint iteration. Straight-
// line call chains converge in as many rounds as the chain is deep (the
// declarations are revisited in file order, not topological order), and
// mutual recursion converges as soon as the facts stop growing; sixteen
// rounds is far beyond any call structure in this tree. Hitting the cap
// leaves the summaries partial, which is safe (see above) and recorded in
// bounded.
const maxSummaryRounds = 16

// moduleSummaries is the shared result of one whole-module summary
// computation.
type moduleSummaries struct {
	// own maps declared functions to their frame-ownership summaries
	// (dataflow.go); only functions with a non-empty summary appear.
	own map[*types.Func]ownSummary
	// spawn maps declared functions to their parallel-region spawn
	// summaries (splitbudget.go); only non-empty summaries appear.
	spawn map[*types.Func]spawnSummary
	// mixed maps a declared function to its stage-domain-mixing findings:
	// Stage parameters that receive registry constants from more than one
	// seed domain across all module call sites (stagekey reports them at
	// the declaration).
	mixed map[*types.Func][]stageMixFinding
	// rounds is the largest number of fixpoint rounds any package needed.
	rounds int
	// bounded records that some package hit maxSummaryRounds and its
	// summaries are a (safe) under-approximation.
	bounded bool
}

// Summaries returns the module's summary set, computing it on first use.
func (m *Module) Summaries() *moduleSummaries {
	m.summariesOnce.Do(func() {
		m.summaries = computeSummaries(m.Fset, m.inOrder())
	})
	return m.summaries
}

// computeSummaries runs the bottom-up fixpoint over pkgs, which must be in
// import-DAG order (dependencies first).
func computeSummaries(fset *token.FileSet, pkgs []*Package) *moduleSummaries {
	s := &moduleSummaries{
		own:   make(map[*types.Func]ownSummary),
		spawn: make(map[*types.Func]spawnSummary),
		mixed: make(map[*types.Func][]stageMixFinding),
	}
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		decls := packageFuncDecls(pkg)
		rounds := 0
		for ; rounds < maxSummaryRounds; rounds++ {
			changed := false
			for _, d := range decls {
				newOwn := summarizeOwnFunc(pkg.Info, d.fd, s.own)
				if !newOwn.equal(s.own[d.obj]) {
					s.own[d.obj] = newOwn
					changed = true
				}
				newSpawn := summarizeSpawnFunc(pkg.Info, d.fd, s.spawn)
				if !newSpawn.equal(s.spawn[d.obj]) {
					s.spawn[d.obj] = newSpawn
					changed = true
				}
			}
			if !changed {
				break
			}
		}
		if rounds >= maxSummaryRounds {
			s.bounded = true
		}
		if rounds+1 > s.rounds {
			s.rounds = rounds + 1
		}
	}
	// Drop empty summaries so clients' presence checks keep meaning "this
	// callee does something".
	for fn, sum := range s.own {
		if len(sum.consumes) == 0 && !sum.returnsOwned {
			delete(s.own, fn)
		}
	}
	for fn, sum := range s.spawn {
		if sum.empty() {
			delete(s.spawn, fn)
		}
	}
	computeStageMix(s, fset, pkgs)
	return s
}

// funcDecl pairs a declaration with its function object.
type funcDecl struct {
	fd  *ast.FuncDecl
	obj *types.Func
}

func packageFuncDecls(pkg *Package) []funcDecl {
	var out []funcDecl
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			out = append(out, funcDecl{fd, obj})
		}
	}
	return out
}

// --- Pass-side access ---

// ownSummaries returns the module-wide ownership summaries when the pass
// runs under Run, or package-local ones (same fixpoint, one package) for
// single-package fixture runs.
func (p *Pass) ownSummaries() map[*types.Func]ownSummary {
	return p.moduleSummaries().own
}

// spawnSummaries is ownSummaries' spawn counterpart.
func (p *Pass) spawnSummaries() map[*types.Func]spawnSummary {
	return p.moduleSummaries().spawn
}

// stageMixFindings returns the module-wide stage-domain-mixing facts.
func (p *Pass) stageMixFindings() map[*types.Func][]stageMixFinding {
	return p.moduleSummaries().mixed
}

// moduleSummaries returns the summary set backing this pass. Run wires the
// module's shared, cached set; a pass constructed by RunPackage falls back
// to a package-local computation so fixture packages see the same
// transitive semantics within their own boundary.
func (p *Pass) moduleSummaries() *moduleSummaries {
	if p.summaries == nil {
		p.summaries = computeSummaries(p.Fset, []*Package{{
			Path:  p.Path,
			Files: p.Files,
			Types: p.Pkg,
			Info:  p.Info,
		}})
	}
	return p.summaries
}

// --- stage-domain mixing ---

// stageMixFinding is one flagged Stage parameter: a non-registry function
// whose parameter receives registry constants from more than one seed
// domain somewhere in the module. Mixing domains through one forwarding
// wrapper couples streams the registry deliberately separates — the
// wrapper belongs to exactly one domain, or in the registry package.
type stageMixFinding struct {
	// param is the parameter name (or its index when unnamed).
	param string
	// detail lists the domains and one example call site each, sorted by
	// domain label for deterministic output.
	detail string
}

// stageNode is one Stage-typed parameter position of one function.
type stageNode struct {
	fn  *types.Func
	idx int
}

// computeStageMix aggregates, for every Stage-typed parameter position in
// the module, the set of registry domains whose constants reach it — via
// direct constant arguments and through the sanctioned forwarding of a
// caller's own Stage parameter — and records a finding for every
// non-registry-package function receiving more than one domain.
func computeStageMix(s *moduleSummaries, fset *token.FileSet, pkgs []*Package) {
	// Registry domains: one const block in a Stage home package is one
	// seed domain, labeled by its first constant's name.
	domainOf := make(map[*types.Const]string)
	homePkgs := make(map[*types.Package]bool)
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		if obj := pkg.Types.Scope().Lookup("Stage"); obj != nil {
			if _, ok := obj.(*types.TypeName); ok {
				homePkgs[pkg.Types] = true
			}
		}
	}
	for _, pkg := range pkgs {
		if pkg.Info == nil || !homePkgs[pkg.Types] {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				label := ""
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						cobj, ok := pkg.Info.Defs[name].(*types.Const)
						if !ok {
							continue
						}
						if _, isStage := isStageType(cobj.Type()); !isStage {
							continue
						}
						if label == "" {
							label = name.Name
						}
						domainOf[cobj] = label
					}
				}
			}
		}
	}
	if len(domainOf) == 0 {
		return
	}

	// Flow collection: constants seeding nodes directly, and forwarding
	// edges from a caller's own Stage parameter to the callee position it
	// is passed into.
	domains := make(map[stageNode]map[string]token.Pos)
	edges := make(map[stageNode]map[stageNode]bool)
	seed := func(n stageNode, domain string, pos token.Pos) {
		m := domains[n]
		if m == nil {
			m = make(map[string]token.Pos)
			domains[n] = m
		}
		if prev, ok := m[domain]; !ok || pos < prev {
			m[domain] = pos
		}
	}
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				caller, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				paramIdx := stageParamIndexes(pkg.Info, fd)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					callee := funcObj(pkg.Info, call.Fun)
					if callee == nil {
						return true
					}
					sig, ok := callee.Type().(*types.Signature)
					if !ok {
						return true
					}
					params := sig.Params()
					for i := 0; i < params.Len() && i < len(call.Args); i++ {
						pt := params.At(i).Type()
						if i == params.Len()-1 && sig.Variadic() {
							if slice, ok := pt.(*types.Slice); ok {
								pt = slice.Elem()
							}
						}
						if _, isStage := isStageType(pt); !isStage {
							continue
						}
						node := stageNode{callee, i}
						arg := ast.Unparen(call.Args[i])
						var id *ast.Ident
						switch a := arg.(type) {
						case *ast.Ident:
							id = a
						case *ast.SelectorExpr:
							id = a.Sel
						default:
							continue
						}
						obj := pkg.Info.Uses[id]
						if cobj, ok := obj.(*types.Const); ok {
							if d, ok := domainOf[cobj]; ok {
								seed(node, d, arg.Pos())
							}
							continue
						}
						if obj == nil {
							continue
						}
						if srcIdx, isParam := paramIdx[obj]; isParam {
							from := stageNode{caller, srcIdx}
							m := edges[from]
							if m == nil {
								m = make(map[stageNode]bool)
								edges[from] = m
							}
							m[node] = true
						}
					}
					return true
				})
			}
		}
	}

	// Propagate along forwarding edges to a fixpoint. Domain sets only
	// grow, so the rounds cap is a safe under-approximating budget.
	for round := 0; round < maxSummaryRounds*2; round++ {
		changed := false
		for from, tos := range edges {
			src := domains[from]
			if len(src) == 0 {
				continue
			}
			for to := range tos {
				for d, pos := range src {
					m := domains[to]
					if prev, ok := m[d]; !ok || pos < prev {
						seed(to, d, pos)
						changed = true
					}
				}
			}
		}
		if !changed {
			s.rounds = max(s.rounds, round+1)
			break
		}
		if round == maxSummaryRounds*2-1 {
			s.bounded = true
		}
	}

	// Findings: more than one domain reaching a function declared outside
	// every Stage home package.
	for node, ds := range domains {
		if len(ds) < 2 {
			continue
		}
		if node.fn.Pkg() == nil || homePkgs[node.fn.Pkg()] {
			continue
		}
		sig, ok := node.fn.Type().(*types.Signature)
		if !ok || node.idx >= sig.Params().Len() {
			continue
		}
		pname := sig.Params().At(node.idx).Name()
		if pname == "" {
			pname = fmt.Sprintf("#%d", node.idx)
		}
		labels := make([]string, 0, len(ds))
		for d := range ds {
			labels = append(labels, d)
		}
		sort.Strings(labels)
		parts := make([]string, len(labels))
		for i, d := range labels {
			p := fset.Position(ds[d])
			parts[i] = fmt.Sprintf("%s (%s:%d)", d, p.Filename, p.Line)
		}
		s.mixed[node.fn] = append(s.mixed[node.fn], stageMixFinding{
			param:  pname,
			detail: joinComma(parts),
		})
	}
	for fn := range s.mixed {
		sort.Slice(s.mixed[fn], func(i, j int) bool { return s.mixed[fn][i].param < s.mixed[fn][j].param })
	}
}

// stageParamIndexes maps fd's Stage-typed parameter objects to their
// positional index in the signature (receivers excluded: forwarding a
// Stage receiver has no positional seat to propagate through).
func stageParamIndexes(info *types.Info, fd *ast.FuncDecl) map[types.Object]int {
	out := make(map[types.Object]int)
	if fd.Type.Params == nil {
		return out
	}
	idx := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := info.Defs[name]
			if obj != nil {
				if _, ok := isStageType(obj.Type()); ok {
					out[obj] = idx
				}
			}
			idx++
		}
		if len(field.Names) == 0 {
			idx++
		}
	}
	return out
}

func joinComma(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}
