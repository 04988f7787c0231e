package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Splitbudget guards against nested worker-pool oversubscription — the
// bug class fixed in the fleet harness: an inner parallel.For inside a
// callback that is already running under an outer parallel region, with
// the inner call handed the full worker budget. On a W-core box that
// schedules W×W goroutines of CPU-bound work, wrecking cache locality
// and (worse) hiding determinism bugs behind scheduling noise.
//
// The rule: inside a function literal passed to a parallel region
// spawner (For or ForChunked), any further region must run on a budget
// threaded through parallel.Split:
//
//   - a directly nested For/ForChunked call's workers argument must be
//     an identifier assigned from Split (or the literal 1, which is
//     explicitly serial);
//   - a call to a function that spawns a region keyed by one of its own
//     parameters must receive a Split-derived value (or 1) in that
//     position;
//   - a call to a function that spawns a region from the worker state it
//     carries — a receiver or a config parameter whose Workers field
//     feeds the region — must be handed an object whose budget was set
//     Split-derived before the call (rcfg.Workers = inner; rcv :=
//     NewReceiver(rcfg); rcv.Decode(...) is the sanctioned shape);
//   - a call to a function that spawns from truly ambient state (a
//     package global, a captured variable) is flagged outright — there
//     is no way to thread a budget into it, which is the defect.
//
// Summaries are module-wide and transitive (summaries.go): a package's
// callees are summarized before the package itself, and same-package
// call chains iterate to a fixpoint, so a budget laundered through
// experiments.Fleet into fleet.Run — or a spawn hidden two calls behind
// the facade — is visible at the outermost call site. The Split test is
// lenient on purpose: an identifier qualifies if any assignment in the
// enclosing function draws it from Split, so a documented escape hatch
// that re-assigns the budget (the UncappedKnob fixture) stays clean
// without a suppression.
var Splitbudget = &Analyzer{
	Name: "splitbudget",
	Doc:  "nested parallel regions must thread a Split worker budget",
	Run:  runSplitbudget,
}

// spawnSummary records how a function (transitively) spawns parallel
// regions: keyed by which of its own parameters (budget can be threaded
// in directly), from the Workers state of which parameter or receiver
// (budget can be threaded in by configuring that object), or from
// ambient state (it cannot).
type spawnSummary struct {
	// byParam marks integer parameters used as a region's worker count.
	byParam map[int]bool
	// byState marks parameters whose carried state feeds a region's
	// worker count; -1 is the receiver.
	byState map[int]bool
	// ambient is set when a region draws its count from anything else.
	ambient bool
}

func (s spawnSummary) empty() bool {
	return len(s.byParam) == 0 && len(s.byState) == 0 && !s.ambient
}

func (s spawnSummary) equal(o spawnSummary) bool {
	if s.ambient != o.ambient || len(s.byParam) != len(o.byParam) || len(s.byState) != len(o.byState) {
		return false
	}
	for i := range s.byParam {
		if !o.byParam[i] {
			return false
		}
	}
	for i := range s.byState {
		if !o.byState[i] {
			return false
		}
	}
	return true
}

// workerOrigin classifies the provenance of a workers expression.
type workerOrigin int

const (
	originOther  workerOrigin = iota
	originParam               // an enclosing function's own parameter
	originState               // Workers state of a parameter or receiver
	originSplit               // assigned from parallel.Split
	originSerial              // the literal 1: explicitly serial
)

func runSplitbudget(pass *Pass) {
	summaries := pass.spawnSummaries()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fc := newSpawnFuncContext(pass.Info, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				lit := regionCallback(pass.Info, call)
				if lit == nil {
					return true
				}
				checkRegionBody(pass, fc, summaries, lit)
				return true
			})
		}
	}
}

// isRegionSpawner reports whether the call starts a parallel region: a
// callee named For or ForChunked taking a workers count first.
func isRegionSpawner(info *types.Info, call *ast.CallExpr) bool {
	obj := funcObj(info, call.Fun)
	if obj == nil {
		return false
	}
	return (obj.Name() == "For" || obj.Name() == "ForChunked") && len(call.Args) >= 3
}

// regionCallback returns the function-literal callback of a region
// spawning call, or nil.
func regionCallback(info *types.Info, call *ast.CallExpr) *ast.FuncLit {
	if !isRegionSpawner(info, call) {
		return nil
	}
	lit, _ := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
	return lit
}

// blessKind is the provenance a local object inherited through the
// blessing rules below.
type blessKind int

const (
	blessSplit  blessKind = iota // carries a Split-derived budget
	blessSerial                  // carries the explicit serial budget 1
	blessParam                   // carries the value of parameter idx
	blessState                   // carries the Workers state of param idx (-1 receiver)
)

type blessing struct {
	kind blessKind
	idx  int
}

// spawnFuncContext caches per-FuncDecl facts: its parameter objects, its
// receiver, and the budget blessings of its locals. An object is blessed
// when the function sets its Workers field from a classified source, or
// when it is derived (by assignment, call result, or composite literal)
// from an already-blessed object — the chain that keeps
// "base.Workers = 1; spec := pop.Spec(i, base); cam, _ := camera.New(spec.Camera)"
// recognizably serial three hops later. First blessing wins, so the
// Uncapped-style re-assignment stays clean.
type spawnFuncContext struct {
	info    *types.Info
	params  map[types.Object]int
	recv    types.Object
	blessed map[types.Object]blessing
}

// maxBlessRounds bounds the blessing fixpoint. Blessings only spread and
// never change once set, so a cutoff under-approximates: fewer blessed
// objects means the summaries report more positions as ambient and the
// checks stay on the flag-less side only when provenance was proven.
const maxBlessRounds = 8

func newSpawnFuncContext(info *types.Info, fd *ast.FuncDecl) *spawnFuncContext {
	fc := &spawnFuncContext{
		info:    info,
		params:  make(map[types.Object]int),
		blessed: make(map[types.Object]blessing),
	}
	idx := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					fc.params[obj] = idx
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		fc.recv = info.Defs[fd.Recv.List[0].Names[0]]
	}
	for round := 0; round < maxBlessRounds; round++ {
		changed := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			if len(as.Lhs) == len(as.Rhs) {
				for i := range as.Rhs {
					changed = fc.blessAssign(as.Lhs[i], as.Rhs[i]) || changed
				}
			} else if len(as.Rhs) == 1 {
				for _, lhs := range as.Lhs {
					changed = fc.blessAssign(lhs, as.Rhs[0]) || changed
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return fc
}

// blessAssign applies one assignment's blessing rule and reports whether
// anything new was learned.
func (fc *spawnFuncContext) blessAssign(lhs, rhs ast.Expr) bool {
	lhs = ast.Unparen(lhs)
	// Setting a Workers field blesses the object that holds it.
	if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Workers" {
		root := fc.rootObj(sel.X)
		if root == nil {
			return false
		}
		if _, done := fc.blessed[root]; done {
			return false
		}
		if b, ok := fc.classifyBudget(rhs); ok {
			fc.blessed[root] = b
			return true
		}
		return false
	}
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return false
	}
	obj := fc.info.Defs[id]
	if obj == nil {
		obj = fc.info.Uses[id]
	}
	if obj == nil {
		return false
	}
	if _, done := fc.blessed[obj]; done {
		return false
	}
	if b, ok := fc.blessFrom(rhs); ok {
		fc.blessed[obj] = b
		return true
	}
	return false
}

// classifyBudget classifies a workers-count expression into a blessing.
func (fc *spawnFuncContext) classifyBudget(e ast.Expr) (blessing, bool) {
	switch o, i := fc.origin(e); o {
	case originSplit:
		return blessing{blessSplit, 0}, true
	case originSerial:
		return blessing{blessSerial, 0}, true
	case originParam:
		return blessing{blessParam, i}, true
	case originState:
		return blessing{blessState, i}, true
	}
	return blessing{}, false
}

// blessFrom derives a blessing for the result of evaluating rhs: an
// aliased blessed object, a call fed a blessed argument, or a composite
// literal with a classified Workers field.
func (fc *spawnFuncContext) blessFrom(rhs ast.Expr) (blessing, bool) {
	rhs = ast.Unparen(rhs)
	if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
		rhs = ast.Unparen(u.X)
	}
	switch x := rhs.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		if root := fc.rootObj(rhs); root != nil {
			if b, ok := fc.blessed[root]; ok {
				return b, true
			}
		}
	case *ast.CallExpr:
		if obj := funcObj(fc.info, x.Fun); obj != nil && obj.Name() == "Split" {
			return blessing{blessSplit, 0}, true
		}
		for _, arg := range x.Args {
			if root := fc.rootObj(arg); root != nil {
				if b, ok := fc.blessed[root]; ok {
					return b, true
				}
			}
		}
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok || key.Name != "Workers" {
				continue
			}
			return fc.classifyBudget(kv.Value)
		}
	}
	return blessing{}, false
}

// rootObj walks a selector/deref/index chain down to its base identifier
// and returns that identifier's object.
func (fc *spawnFuncContext) rootObj(e ast.Expr) types.Object {
	for {
		e = ast.Unparen(e)
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.Ident:
			if o := fc.info.Uses[x]; o != nil {
				return o
			}
			return fc.info.Defs[x]
		default:
			return nil
		}
	}
}

// origin classifies one workers expression within the function. The int
// is the parameter index for originParam, or the state index (-1 for the
// receiver) for originState.
func (fc *spawnFuncContext) origin(e ast.Expr) (workerOrigin, int) {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.BasicLit:
		if x.Value == "1" {
			return originSerial, 0
		}
		return originOther, 0
	case *ast.CallExpr:
		if obj := funcObj(fc.info, x.Fun); obj != nil && obj.Name() == "Split" {
			return originSplit, 0
		}
		return originOther, 0
	case *ast.Ident:
		obj := fc.info.Uses[x]
		if obj == nil {
			return originOther, 0
		}
		if b, ok := fc.blessed[obj]; ok {
			return b.origin()
		}
		if i, ok := fc.params[obj]; ok {
			return originParam, i
		}
		return originOther, 0
	case *ast.SelectorExpr:
		return fc.classifyCarrier(x)
	}
	return originOther, 0
}

// classifyCarrier classifies an expression naming an object whose state
// feeds a worker count (cfg.Workers, r.cfg.Workers, the rcv in
// rcv.Decode): what does the chain's root object carry?
func (fc *spawnFuncContext) classifyCarrier(e ast.Expr) (workerOrigin, int) {
	root := fc.rootObj(e)
	if root == nil {
		return originOther, 0
	}
	if b, ok := fc.blessed[root]; ok {
		return b.origin()
	}
	if root == fc.recv {
		return originState, -1
	}
	if i, ok := fc.params[root]; ok {
		return originState, i
	}
	return originOther, 0
}

func (b blessing) origin() (workerOrigin, int) {
	switch b.kind {
	case blessSplit:
		return originSplit, 0
	case blessSerial:
		return originSerial, 0
	case blessParam:
		return originParam, b.idx
	case blessState:
		return originState, b.idx
	}
	return originOther, 0
}

// summarizeSpawnFunc computes fd's spawn summary given the summaries
// accumulated so far (the fixpoint driver re-runs it until nothing
// grows). Direct region spawns classify their workers argument; calls to
// summarized callees translate the callee's needs into the caller's
// vocabulary — a callee parameter fed by our parameter becomes our
// byParam, a callee's receiver state satisfied by an object we blessed
// Split-derived vanishes, and anything unprovable becomes ambient.
func summarizeSpawnFunc(info *types.Info, fd *ast.FuncDecl, global map[*types.Func]spawnSummary) spawnSummary {
	fc := newSpawnFuncContext(info, fd)
	var sum spawnSummary
	add := func(o workerOrigin, idx int) {
		switch o {
		case originSplit, originSerial:
			// Budget-disciplined internally; nothing to thread.
		case originParam:
			if sum.byParam == nil {
				sum.byParam = make(map[int]bool)
			}
			sum.byParam[idx] = true
		case originState:
			if sum.byState == nil {
				sum.byState = make(map[int]bool)
			}
			sum.byState[idx] = true
		default:
			sum.ambient = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isRegionSpawner(info, call) {
			o, i := fc.origin(call.Args[0])
			add(o, i)
			return true
		}
		callee := funcObj(info, call.Fun)
		if callee == nil {
			return true
		}
		csum, ok := global[callee]
		if !ok {
			return true
		}
		if csum.ambient {
			sum.ambient = true
		}
		for j := range csum.byParam {
			if j < len(call.Args) {
				o, i := fc.origin(call.Args[j])
				add(o, i)
			}
		}
		for j := range csum.byState {
			if t := spawnTarget(call, j); t != nil {
				o, i := fc.classifyCarrier(t)
				add(o, i)
			}
		}
		return true
	})
	return sum
}

// spawnTarget resolves the expression carrying a callee's byState budget
// at a call site: the receiver expression for -1, the argument otherwise.
func spawnTarget(call *ast.CallExpr, j int) ast.Expr {
	if j == -1 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return sel.X
		}
		return nil
	}
	if j >= 0 && j < len(call.Args) {
		return call.Args[j]
	}
	return nil
}

// checkRegionBody walks one region callback and flags unthreaded nested
// parallelism, direct or transitive through summarized callees.
func checkRegionBody(pass *Pass, fc *spawnFuncContext, summaries map[*types.Func]spawnSummary, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isRegionSpawner(pass.Info, call) {
			switch o, _ := fc.origin(call.Args[0]); o {
			case originSplit, originSerial:
			default:
				pass.Reportf(call.Args[0].Pos(),
					"nested parallel region inside a parallel callback must run on a Split-derived budget, not the full worker count")
			}
			return true
		}
		obj := funcObj(pass.Info, call.Fun)
		if obj == nil {
			return true
		}
		sum, ok := summaries[obj]
		if !ok {
			return true
		}
		if sum.ambient {
			pass.Reportf(call.Pos(),
				"%s spawns a parallel region from ambient state; calling it inside a parallel callback oversubscribes the pool — thread a Split budget through a parameter",
				obj.Name())
			return true
		}
		for _, i := range sortedInts(sum.byParam) {
			if i >= len(call.Args) {
				continue
			}
			switch o, _ := fc.origin(call.Args[i]); o {
			case originSplit, originSerial:
			default:
				pass.Reportf(call.Args[i].Pos(),
					"%s runs a parallel region keyed by this argument; inside a parallel callback it must be Split-derived, not the full worker count",
					obj.Name())
			}
		}
		for _, j := range sortedInts(sum.byState) {
			t := spawnTarget(call, j)
			if t == nil {
				continue
			}
			switch o, _ := fc.classifyCarrier(t); o {
			case originSplit, originSerial:
			default:
				pass.Reportf(t.Pos(),
					"%s spawns a parallel region from ambient state it carries; inside a parallel callback its Workers budget must be configured Split-derived before the call",
					obj.Name())
			}
		}
		return true
	})
}

// sortedInts returns the map's keys in ascending order, for
// deterministic report order.
func sortedInts(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for i := range m {
		out = append(out, i)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
