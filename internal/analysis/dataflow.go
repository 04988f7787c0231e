package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the dataflow layer under the ownership/determinism analyzer
// pack (poolown, splitbudget): a bounded path-sensitive execution engine
// over go/ast statements, plus one-hop interprocedural summaries of which
// same-package callees consume or return pool-owned frames.
//
// The engine enumerates control-flow paths through one function body:
// if/switch/select fork the state, loops run their body up to a small
// fixed number of abstract iterations with back-edge states fed forward
// (enough to see leak-on-back-edge and loop-carried double-release), and
// return/break/continue are tracked as distinct flow kinds. The client
// supplies an abstract store and interprets leaf statements; the engine
// owns forking, merging, deduplication and the path budget. When a
// function exceeds the budget (or uses goto/labels, which this layer does
// not model), the engine signals a bail-out and the client suppresses its
// findings for that function — the analyzers prefer silence to noise.

// flowKind classifies how control left a statement sequence.
type flowKind uint8

const (
	flowFall flowKind = iota // fell through to the next statement
	flowReturn
	flowBreak
	flowContinue
)

// pathState is one abstract store owned by the client. The engine treats
// it as opaque: it copies via hooks.copy and dedupes via hooks.key.
type pathState any

// pathFlow is one control-flow outcome: a state plus how it left.
type pathFlow struct {
	kind flowKind
	st   pathState
}

// pathHooks is the client interface of the path engine. All hooks may
// mutate the state they are handed; the engine copies before forking.
type pathHooks struct {
	// copy deep-copies a state for a fork.
	copy func(st pathState) pathState
	// key fingerprints a state for deduplication; states with equal keys
	// are interchangeable to the client.
	key func(st pathState) string
	// stmt interprets one leaf statement (assignment, expression, send,
	// defer, go, incdec, decl, or the key/value clause of a range).
	stmt func(s ast.Stmt, st pathState)
	// cond interprets an expression evaluated for control flow (an if or
	// loop condition, a switch tag, a case expression, a ranged operand).
	cond func(e ast.Expr, st pathState)
	// exit observes a function exit: an explicit return (ret non-nil,
	// already interpreted for its result expressions) or falling off the
	// end of the body (ret nil, end is the closing brace).
	exit func(ret *ast.ReturnStmt, end token.Pos, st pathState)
	// loopBack observes one state reaching the back edge of loop after an
	// abstract iteration. entry is the tracked-variable snapshot taken at
	// loop entry (whatever the client returned from snapshot); the hook
	// may mutate st before it is fed into the next abstract iteration.
	loopBack func(loop ast.Stmt, entry any, st pathState)
	// snapshot captures whatever loopBack needs to recognize state born
	// inside the loop body. Called once per loop entry per path.
	snapshot func(st pathState) any
	// bail signals that the function could not be analyzed (goto, labels,
	// or path-budget exhaustion); the client discards its findings.
	bail func()
}

// maxPathStates bounds the total number of states the engine processes in
// one function; beyond it the function is abandoned via hooks.bail. The
// dedup keeps well-behaved functions far below this.
const maxPathStates = 4096

// maxLoopIters is how many abstract iterations feed a loop's back edge:
// two is enough to see both a leak across the back edge and a second
// iteration observing state the first one released.
const maxLoopIters = 2

// pathEngine runs one function body.
type pathEngine struct {
	hooks   pathHooks
	visited int
	dead    bool // bail() fired; keep walking cheaply but report nothing
}

// execPaths enumerates the paths of body starting from init. The engine
// guarantees exactly one exit hook per path that leaves the function.
func execPaths(body *ast.BlockStmt, init pathState, hooks pathHooks) {
	e := &pathEngine{hooks: hooks}
	flows := e.execBlock(body.List, []pathState{init})
	for _, f := range flows {
		if e.dead {
			return
		}
		switch f.kind {
		case flowFall:
			e.hooks.exit(nil, body.Rbrace, f.st)
		case flowReturn:
			// exit already observed at the return statement.
		case flowBreak, flowContinue:
			// Malformed at function level; the type checker rejects it.
		}
	}
}

// budget charges n states against the path budget, bailing when spent.
func (e *pathEngine) budget(n int) {
	e.visited += n
	if e.visited > maxPathStates && !e.dead {
		e.dead = true
		e.hooks.bail()
	}
}

// dedupe collapses flows with identical (kind, state-key).
func (e *pathEngine) dedupe(flows []pathFlow) []pathFlow {
	if len(flows) < 2 {
		return flows
	}
	seen := make(map[string]bool, len(flows))
	out := flows[:0]
	for _, f := range flows {
		k := fmt.Sprintf("%d|%s", f.kind, e.hooks.key(f.st))
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, f)
	}
	return out
}

// execBlock runs stmts over every state in states, returning the set of
// outcomes. Fall-through states thread from one statement to the next;
// other flow kinds short-circuit past the remaining statements.
func (e *pathEngine) execBlock(stmts []ast.Stmt, states []pathState) []pathFlow {
	cur := states
	var done []pathFlow
	for _, s := range stmts {
		if len(cur) == 0 || e.dead {
			break
		}
		var next []pathState
		for _, st := range cur {
			for _, f := range e.execStmt(s, st) {
				if f.kind == flowFall {
					next = append(next, f.st)
				} else {
					done = append(done, f)
				}
			}
		}
		e.budget(len(next))
		cur = next
		if len(cur) > 1 {
			deduped := e.dedupe(flowsOf(cur))
			cur = cur[:0]
			for _, f := range deduped {
				cur = append(cur, f.st)
			}
		}
	}
	for _, st := range cur {
		done = append(done, pathFlow{flowFall, st})
	}
	return e.dedupe(done)
}

func flowsOf(states []pathState) []pathFlow {
	out := make([]pathFlow, len(states))
	for i, st := range states {
		out[i] = pathFlow{flowFall, st}
	}
	return out
}

// execStmt runs one statement over one state.
func (e *pathEngine) execStmt(s ast.Stmt, st pathState) []pathFlow {
	if e.dead {
		return nil
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		return e.execBlock(s.List, []pathState{st})

	case *ast.IfStmt:
		if s.Init != nil {
			e.hooks.stmt(s.Init, st)
		}
		e.hooks.cond(s.Cond, st)
		flows := e.execBlock(s.Body.List, []pathState{e.hooks.copy(st)})
		if s.Else != nil {
			flows = append(flows, e.execStmt(s.Else, st)...)
		} else {
			flows = append(flows, pathFlow{flowFall, st})
		}
		e.budget(len(flows))
		return e.dedupe(flows)

	case *ast.ForStmt:
		if s.Init != nil {
			e.hooks.stmt(s.Init, st)
		}
		if s.Cond != nil {
			e.hooks.cond(s.Cond, st)
		}
		return e.execLoop(s, s.Body, st, s.Cond != nil, func(backSt pathState) {
			if s.Post != nil {
				e.hooks.stmt(s.Post, backSt)
			}
			if s.Cond != nil {
				e.hooks.cond(s.Cond, backSt)
			}
		})

	case *ast.RangeStmt:
		e.hooks.cond(s.X, st)
		// The key/value clause assigns on every iteration; the client sees
		// the whole RangeStmt as one leaf to interpret those targets.
		return e.execLoop(s, s.Body, st, true, func(backSt pathState) {
			e.hooks.stmt(s, backSt)
		})

	case *ast.SwitchStmt:
		if s.Init != nil {
			e.hooks.stmt(s.Init, st)
		}
		if s.Tag != nil {
			e.hooks.cond(s.Tag, st)
		}
		return e.execCases(s.Body.List, st, func(cc *ast.CaseClause, caseSt pathState) {
			for _, x := range cc.List {
				e.hooks.cond(x, caseSt)
			}
		})

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			e.hooks.stmt(s.Init, st)
		}
		e.hooks.stmt(s.Assign, st)
		return e.execCases(s.Body.List, st, func(cc *ast.CaseClause, caseSt pathState) {})

	case *ast.SelectStmt:
		var flows []pathFlow
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			caseSt := e.hooks.copy(st)
			if comm.Comm != nil {
				e.hooks.stmt(comm.Comm, caseSt)
			}
			flows = append(flows, e.execBlock(comm.Body, []pathState{caseSt})...)
		}
		if len(flows) == 0 {
			return nil // select{} blocks forever
		}
		e.budget(len(flows))
		return e.dedupe(flows)

	case *ast.ReturnStmt:
		e.hooks.stmt(s, st)
		e.hooks.exit(s, s.Pos(), st)
		return []pathFlow{{flowReturn, st}}

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				e.hooks.bail()
				e.dead = true
				return nil
			}
			return []pathFlow{{flowBreak, st}}
		case token.CONTINUE:
			if s.Label != nil {
				e.hooks.bail()
				e.dead = true
				return nil
			}
			return []pathFlow{{flowContinue, st}}
		case token.FALLTHROUGH:
			// Handled structurally by execCases; reaching here means a
			// case body's last statement, which execCases consumed.
			return []pathFlow{{flowFall, st}}
		default: // goto
			e.hooks.bail()
			e.dead = true
			return nil
		}

	case *ast.LabeledStmt:
		// Labels exist to be jumped to; this layer does not model them.
		e.hooks.bail()
		e.dead = true
		return nil

	case *ast.EmptyStmt:
		return []pathFlow{{flowFall, st}}

	default:
		// Leaf statements: assignments, expressions, declarations, defers,
		// go statements, sends, incdec.
		e.hooks.stmt(s, st)
		return []pathFlow{{flowFall, st}}
	}
}

// execLoop runs a loop body for up to maxLoopIters abstract iterations.
// canSkip reports whether zero iterations are possible (a condition or
// range that may be immediately exhausted); back runs the post/condition
// work on each state that reaches the back edge.
func (e *pathEngine) execLoop(loop ast.Stmt, body *ast.BlockStmt, st pathState, canSkip bool, back func(pathState)) []pathFlow {
	var after []pathFlow
	entry := e.hooks.snapshot(st)
	if canSkip {
		after = append(after, pathFlow{flowFall, e.hooks.copy(st)})
	}
	cur := []pathState{st}
	for iter := 0; iter < maxLoopIters && len(cur) > 0 && !e.dead; iter++ {
		var backStates []pathState
		for _, s := range cur {
			for _, f := range e.execBlock(body.List, []pathState{s}) {
				switch f.kind {
				case flowFall, flowContinue:
					back(f.st)
					e.hooks.loopBack(loop, entry, f.st)
					backStates = append(backStates, f.st)
					// The condition may also exit here.
					if canSkip {
						after = append(after, pathFlow{flowFall, e.hooks.copy(f.st)})
					}
				case flowBreak:
					after = append(after, pathFlow{flowFall, f.st})
				case flowReturn:
					after = append(after, f)
				}
			}
		}
		e.budget(len(backStates))
		cur = backStates
	}
	e.budget(len(after))
	return e.dedupe(after)
}

// execCases forks one path per case clause of a switch, handling
// fallthrough by threading the state into the next clause's body, plus an
// implicit no-case-matched path when there is no default clause.
func (e *pathEngine) execCases(clauses []ast.Stmt, st pathState, onCase func(*ast.CaseClause, pathState)) []pathFlow {
	var flows []pathFlow
	hasDefault := false
	// carried holds states falling through from the previous clause.
	var carried []pathState
	for _, cs := range clauses {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		caseSt := e.hooks.copy(st)
		onCase(cc, caseSt)
		entry := append(carried, caseSt)
		carried = nil
		body := cc.Body
		ft := len(body) > 0 && isFallthrough(body[len(body)-1])
		if ft {
			body = body[:len(body)-1]
		}
		for _, f := range e.execBlock(body, entry) {
			if ft && f.kind == flowFall {
				carried = append(carried, f.st)
				continue
			}
			flows = append(flows, f)
		}
	}
	// A trailing fallthrough cannot exist (the type checker rejects it),
	// so carried is empty here.
	if !hasDefault {
		flows = append(flows, pathFlow{flowFall, st})
	}
	e.budget(len(flows))
	return e.dedupe(flows)
}

func isFallthrough(s ast.Stmt) bool {
	b, ok := s.(*ast.BranchStmt)
	return ok && b.Tok == token.FALLTHROUGH
}

// --- ownership summaries ---

// ownSummary is the interprocedural summary of one function: which of its
// pointer-to-Frame parameters it consumes (hands to a Put/Recycle — or,
// transitively, to a callee whose summary consumes that position — ending
// the caller's borrow) and whether it returns a pool-owned frame (a *Frame
// drawn from a Pool.Get, directly or through a summarized callee, that the
// caller must release). Summaries are computed module-wide in import-DAG
// order by the fixpoint engine in summaries.go.
type ownSummary struct {
	// consumes maps parameter index (receiver excluded) to true when the
	// body releases that parameter.
	consumes map[int]bool
	// returnsOwned reports that some return hands back a Pool.Get frame.
	returnsOwned bool
}

// equal reports summary equality, the fixpoint termination test.
func (s ownSummary) equal(o ownSummary) bool {
	if s.returnsOwned != o.returnsOwned || len(s.consumes) != len(o.consumes) {
		return false
	}
	for i := range s.consumes {
		if !o.consumes[i] {
			return false
		}
	}
	return true
}

// summarizeOwnFunc scans one declaration body syntactically, consulting
// the global summary map for callee effects. With global fixed it is
// monotone in global (consume sets and returnsOwned only grow), which is
// what lets the engine iterate call cycles to a fixpoint.
func summarizeOwnFunc(info *types.Info, fd *ast.FuncDecl, global map[*types.Func]ownSummary) ownSummary {
	sum := ownSummary{consumes: make(map[int]bool)}
	// Frame-pointer parameters by object, with their positional index.
	params := make(map[types.Object]int)
	idx := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				obj := info.Defs[name]
				if obj != nil && isFramePtrType(obj.Type()) {
					params[obj] = idx
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}
	// grantsOwned reports whether e yields a pool-owned frame: a direct
	// Pool.Get or a call to a callee summarized as returning one.
	grantsOwned := func(e ast.Expr) bool {
		if isPoolGetCall(info, e) {
			return true
		}
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return false
		}
		obj := funcObj(info, call.Fun)
		return obj != nil && global[obj].returnsOwned
	}
	// consumeParam records that the identifier arg, if a Frame parameter,
	// is consumed.
	consumeParam := func(arg ast.Expr) {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok {
			return
		}
		if obj := info.Uses[id]; obj != nil {
			if pi, ok := params[obj]; ok {
				sum.consumes[pi] = true
			}
		}
	}
	// Local variables holding a pool-owned frame, for the returnsOwned
	// scan.
	owned := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) && grantsOwned(rhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						if obj := info.Defs[id]; obj != nil {
							owned[obj] = true
						} else if obj := info.Uses[id]; obj != nil {
							owned[obj] = true
						}
					}
				}
			}
		case *ast.CallExpr:
			if isConsumeCallee(info, n.Fun) {
				for _, arg := range n.Args {
					consumeParam(arg)
				}
				return true
			}
			// A parameter handed to a callee position the callee's summary
			// consumes is consumed here too — the transfer chain ends in a
			// Put/Recycle further down.
			if obj := funcObj(info, n.Fun); obj != nil {
				if callee, ok := global[obj]; ok {
					for i, arg := range n.Args {
						if callee.consumes[i] {
							consumeParam(arg)
						}
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				res = ast.Unparen(res)
				if grantsOwned(res) {
					sum.returnsOwned = true
				}
				if id, ok := res.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil && owned[obj] {
						sum.returnsOwned = true
					}
				}
			}
		}
		return true
	})
	return sum
}

// isFramePtrType reports whether t is a pointer to a named type Frame.
func isFramePtrType(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Frame"
}

// isPoolGetCall reports whether e is a call of a Get method on a type
// named Pool whose result is a *Frame — the ownership-granting event.
func isPoolGetCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	obj := funcObj(info, call.Fun)
	if obj == nil || obj.Name() != "Get" {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Pool" {
		return false
	}
	return returnsFramePtr(obj)
}

// returnsFramePtr reports whether any result of the function is a pointer
// to a named type called Frame.
func returnsFramePtr(obj *types.Func) bool {
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isFramePtrType(res.At(i).Type()) {
			return true
		}
	}
	return false
}

// isConsumeCallee reports whether the called function releases the frames
// it is handed: any method or function named Put or Recycle. The name
// rule is deliberately universal (frame.Pool.Put, Multiplexer.Recycle,
// fixture pools) — naming a frame-releasing function anything else is
// itself a convention violation.
func isConsumeCallee(info *types.Info, fun ast.Expr) bool {
	obj := funcObj(info, fun)
	if obj == nil {
		return false
	}
	return obj.Name() == "Put" || obj.Name() == "Recycle"
}

// sortedVarNames renders a deterministic fingerprint fragment for a
// variable-keyed map, used by clients to build state keys.
func sortedVarNames[T any](m map[*types.Var]T, render func(*types.Var, T) string) string {
	parts := make([]string, 0, len(m))
	for v, t := range m {
		//lint:ignore maprange sort.Strings below normalizes the iteration order
		parts = append(parts, render(v, t))
	}
	sort.Strings(parts)
	out := ""
	for _, p := range parts {
		out += p + ";"
	}
	return out
}
