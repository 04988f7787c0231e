package analysis

import (
	"fmt"
	"math"
)

// interval is the abstract domain of the intrange analyzer: a closed
// range [lo, hi] over float64, with ±Inf for unbounded ends. float64
// represents every integer the 32-bit-and-under checks care about
// exactly; the 64-bit checks only ever test "entirely outside the type",
// where the representation error at 1e18 scale is irrelevant.
//
// House style note: this file deliberately contains no float == or !=
// (floateq forbids them module-wide, analysis code included). Emptiness,
// ordering and fingerprinting are all expressed through inequalities or
// formatted strings.
type interval struct {
	lo, hi float64
}

// topInterval is the unbounded interval: nothing known.
func topInterval() interval {
	return interval{math.Inf(-1), math.Inf(1)}
}

// isTop reports that both ends are unbounded.
func (iv interval) isTop() bool {
	return math.IsInf(iv.lo, -1) && math.IsInf(iv.hi, 1)
}

// isEmpty reports an infeasible interval (a branch refinement proved the
// path impossible).
func (iv interval) isEmpty() bool {
	return iv.lo > iv.hi
}

// within reports iv ⊆ o. Empty intervals are within everything (the path
// cannot execute, so any check on it holds vacuously).
func (iv interval) within(o interval) bool {
	if iv.isEmpty() {
		return true
	}
	return iv.lo >= o.lo && iv.hi <= o.hi
}

// disjoint reports that iv and o share no point — the "definitely
// overflows" test for 64-bit targets.
func (iv interval) disjoint(o interval) bool {
	if iv.isEmpty() || o.isEmpty() {
		return true
	}
	return iv.hi < o.lo || iv.lo > o.hi
}

// union is the lattice join.
func (iv interval) union(o interval) interval {
	if iv.isEmpty() {
		return o
	}
	if o.isEmpty() {
		return iv
	}
	return interval{math.Min(iv.lo, o.lo), math.Max(iv.hi, o.hi)}
}

// intersect is the lattice meet (may be empty).
func (iv interval) intersect(o interval) interval {
	return interval{math.Max(iv.lo, o.lo), math.Min(iv.hi, o.hi)}
}

// fingerprint renders the interval for state dedup keys.
func (iv interval) fingerprint() string {
	return fmt.Sprintf("%g:%g", iv.lo, iv.hi)
}

// sameAs reports that two intervals have identical bounds, via their
// fingerprints (string equality, keeping float comparison out of the
// code).
func (iv interval) sameAs(o interval) bool {
	return iv.fingerprint() == o.fingerprint()
}

func (iv interval) add(o interval) interval {
	if iv.isEmpty() || o.isEmpty() {
		return iv.union(o)
	}
	return interval{addLo(iv.lo, o.lo), addHi(iv.hi, o.hi)}
}

func (iv interval) sub(o interval) interval {
	return iv.add(o.neg())
}

func (iv interval) neg() interval {
	if iv.isEmpty() {
		return iv
	}
	return interval{-iv.hi, -iv.lo}
}

// addLo/addHi add with the convention that an Inf+(-Inf) collision rounds
// toward the unbounded (conservative) side.
func addLo(a, b float64) float64 {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		if math.IsInf(a, -1) || math.IsInf(b, -1) {
			return math.Inf(-1)
		}
		return math.Inf(1)
	}
	return a + b
}

func addHi(a, b float64) float64 {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		if math.IsInf(a, 1) || math.IsInf(b, 1) {
			return math.Inf(1)
		}
		return math.Inf(-1)
	}
	return a + b
}

// trunc applies float→integer truncation toward zero to both ends.
func (iv interval) trunc() interval {
	if iv.isEmpty() {
		return iv
	}
	return interval{math.Trunc(iv.lo), math.Trunc(iv.hi)}
}

// mul multiplies two intervals. Only the all-finite case is computed
// precisely; any unbounded operand collapses to top (0·Inf is a NaN trap
// not worth modeling — hot-loop arithmetic the analyzer must prove is
// finite-on-finite).
func (iv interval) mul(o interval) interval {
	if iv.isEmpty() || o.isEmpty() {
		return iv.union(o)
	}
	if math.IsInf(iv.lo, 0) || math.IsInf(iv.hi, 0) || math.IsInf(o.lo, 0) || math.IsInf(o.hi, 0) {
		return topInterval()
	}
	c := [4]float64{iv.lo * o.lo, iv.lo * o.hi, iv.hi * o.lo, iv.hi * o.hi}
	out := interval{c[0], c[0]}
	for _, v := range c[1:] {
		out.lo = math.Min(out.lo, v)
		out.hi = math.Max(out.hi, v)
	}
	return out
}

// div computes iv / o when the divisor is finite and provably excludes
// zero; anything else is top.
func (iv interval) div(o interval) interval {
	if iv.isEmpty() || o.isEmpty() {
		return iv.union(o)
	}
	if math.IsInf(iv.lo, 0) || math.IsInf(iv.hi, 0) || math.IsInf(o.lo, 0) || math.IsInf(o.hi, 0) {
		return topInterval()
	}
	if o.lo <= 0 && o.hi >= 0 {
		return topInterval()
	}
	c := [4]float64{iv.lo / o.lo, iv.lo / o.hi, iv.hi / o.lo, iv.hi / o.hi}
	out := interval{c[0], c[0]}
	for _, v := range c[1:] {
		out.lo = math.Min(out.lo, v)
		out.hi = math.Max(out.hi, v)
	}
	return out
}

// rem models x % m for the common counter shape: non-negative dividend,
// positive bounded divisor gives [0, m.hi-1]; everything else is top.
func (iv interval) rem(o interval) interval {
	if iv.isEmpty() || o.isEmpty() {
		return iv.union(o)
	}
	if iv.lo >= 0 && o.lo > 0 && !math.IsInf(o.hi, 1) {
		return interval{0, o.hi - 1}
	}
	return topInterval()
}

// shl models x << k for non-negative x and a constant-bounded shift as
// multiplication by 2^k (using the widest shift in o).
func (iv interval) shl(o interval) interval {
	if iv.isEmpty() || o.isEmpty() {
		return iv.union(o)
	}
	if iv.lo < 0 || o.lo < 0 || o.hi > 63 || math.IsInf(iv.hi, 1) {
		return topInterval()
	}
	f := math.Pow(2, o.hi)
	return interval{iv.lo, iv.hi * f}
}

// shr models x >> k for non-negative x as floor(x / 2^k): smallest at the
// widest shift in o, largest at the narrowest.
func (iv interval) shr(o interval) interval {
	if iv.isEmpty() || o.isEmpty() {
		return iv.union(o)
	}
	if iv.lo < 0 || o.lo < 0 {
		return topInterval()
	}
	return interval{
		math.Floor(iv.lo / math.Pow(2, math.Min(o.hi, 63))),
		math.Floor(iv.hi / math.Pow(2, math.Min(o.lo, 63))),
	}
}

// and models x & m for non-negative operands: bounded by the smaller of
// the two upper bounds.
func (iv interval) and(o interval) interval {
	if iv.isEmpty() || o.isEmpty() {
		return iv.union(o)
	}
	if iv.lo < 0 || o.lo < 0 {
		return topInterval()
	}
	return interval{0, math.Min(iv.hi, o.hi)}
}
