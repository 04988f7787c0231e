// Package splitbudget is the fixture for the splitbudget analyzer:
// nested parallel regions must thread a Split-derived worker budget. The
// local runner mimics internal/parallel — the analyzer matches For,
// ForChunked and Split by name, so the fixture exercises the production
// matching without importing repo packages.
package splitbudget

type runner struct{}

func (runner) For(workers, n int, fn func(int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

func (runner) ForChunked(workers, n int, fn func(lo, hi int)) { fn(0, n) }

// Split mimics parallel.Split: the sanctioned way to subdivide a budget.
func Split(workers, parts int) int {
	if parts <= 0 {
		return workers
	}
	inner := workers / parts
	if inner < 1 {
		inner = 1
	}
	return inner
}

type config struct {
	workers int
	r       runner
}

// rowSweep spawns a region keyed by its own parameter: callers can
// thread a budget in, so the summary marks parameter 1.
func (c config) rowSweep(rows, workers int) {
	c.r.ForChunked(workers, rows, func(lo, hi int) {})
}

// ambientSweep spawns from a config field: no budget can be threaded in.
func (c config) ambientSweep(rows int) {
	c.r.ForChunked(c.workers, rows, func(lo, hi int) {})
}

// NestedFullBudget is the seeded reproduction of the fleet-harness
// oversubscription defect: an inner region inside a parallel callback
// handed the full worker count, W×W goroutines of CPU-bound work.
func NestedFullBudget(c config, workers, n int) {
	c.r.For(workers, n, func(i int) {
		c.r.For(workers, n, func(j int) {}) // want "must run on a Split-derived budget"
	})
}

// NestedViaParamCallee hands the full budget to a summarized callee that
// spawns by parameter.
func NestedViaParamCallee(c config, workers, n int) {
	c.r.For(workers, n, func(i int) {
		c.rowSweep(n, workers) // want "must be Split-derived"
	})
}

// NestedViaAmbientCallee calls a summarized callee that spawns from
// ambient state: unfixable at the call site, flagged outright.
func NestedViaAmbientCallee(c config, workers, n int) {
	c.r.For(workers, n, func(i int) {
		c.ambientSweep(n) // want "spawns a parallel region from ambient state"
	})
}

// Negatives: threaded budgets, serial inner regions, and top-level use.

// ThreadedBudget is the fixed shape: the inner budget comes from Split.
func ThreadedBudget(c config, workers, n int) {
	inner := Split(workers, n)
	c.r.For(workers, n, func(i int) {
		c.r.For(inner, n, func(j int) {})
		c.rowSweep(n, inner)
	})
}

// UncappedKnob mirrors a budget escape hatch: the ident once drew from
// Split, so a documented re-assignment does not need a suppression.
func UncappedKnob(c config, workers, n int, uncapped bool) {
	inner := Split(workers, n)
	if uncapped {
		inner = 0
	}
	c.r.For(workers, n, func(i int) {
		c.r.For(inner, n, func(j int) {})
	})
}

// SerialInner runs the inner region explicitly serial.
func SerialInner(c config, workers, n int) {
	c.r.For(workers, n, func(i int) {
		c.r.ForChunked(1, n, func(lo, hi int) {})
	})
}

// TopLevel regions outside any callback take the full budget freely.
func TopLevel(c config, workers, n int) {
	c.r.For(workers, n, func(i int) {})
	c.rowSweep(n, workers)
	c.ambientSweep(n)
}

// Ignored documents a sanctioned nesting (a benchmark probing the
// oversubscribed regime on purpose).
func Ignored(c config, workers, n int) {
	c.r.For(workers, n, func(i int) {
		//lint:ignore splitbudget fixture: benchmark measures the oversubscribed regime
		c.r.For(workers, n, func(j int) {})
	})
}
