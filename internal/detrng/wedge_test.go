package detrng

import (
	"math"
	"testing"
)

// wedgeExact is the wedge test the bracket settles, as NormFloat64 wrote
// it before: l < float32(math.Exp(-.5*x*x)).
func wedgeExact(x float64, l float32) bool { return l < float32(math.Exp(-.5*x*x)) }

// TestWedgeBracketMatchesExp: for every strip, decideWedge must never
// settle a wedge test the other way from the exact test, and must settle
// at least 90% of the wedge tests NormFloat64 meets.
//
// Shift: each strip's interval width 2^wedgeShift[i] is the least power
// of two whose wedgeIntervals intervals cover the strip's wedge offsets
// |j| − kn[i] ∈ [0, 2³¹ − 1 − kn[i]], so the kernel's 5-bit mask cuts
// nothing and no narrower width would do.
//
// Sweep: |j| runs over each strip's wedge range [kn[i], 2³¹) in 4096
// even steps plus the five |j| around each node J_k = kn[i] + k·2^shift,
// at both signs; for each x = j·wn[i], l takes the exact exponential and
// the bracket bounds lo and hi of the nodes k−1 … k+2 around |j|'s
// interval k, computed here from the nodes, and the float32 neighbours of
// each. Those are the levels where an off-by-one node, a bound from the
// wrong end or a margin of the wrong sign would turn a decision.
//
// Random: 1 M wedge tests as NormFloat64 meets them, j and u from a
// stream, l computed as NormFloat64 computes it.
func TestWedgeBracketMatchesExp(t *testing.T) {
	checks, settled := 0, 0
	check := func(i int32, j int32, l float32) {
		checks++
		accept, ok := decideWedge(i, absInt32(j), l)
		if !ok {
			return
		}
		settled++
		x := float64(j) * float64(wn[i])
		if want := wedgeExact(x, l); accept != want {
			t.Fatalf("strip %d j %d x %v l %v: decideWedge says accept=%v, the exact test %v", i, j, x, l, accept, want)
		}
	}
	for i := int32(1); i < 128; i++ {
		s := wedgeShift[i]
		lo, hi := uint64(kn[i]), uint64(1<<31-1)
		if (hi-lo)>>s >= wedgeIntervals || s > 0 && (hi-lo)>>(s-1) < wedgeIntervals {
			t.Fatalf("strip %d: shift %d is not the least that covers offsets up to %d in %d intervals", i, s, hi-lo, wedgeIntervals)
		}
		node := func(k uint64) uint64 { return lo + k<<s }
		var js []uint64
		const steps = 4096
		for n := uint64(0); n <= steps; n++ {
			js = append(js, lo+(hi-lo)*n/steps)
		}
		for k := uint64(0); k <= wedgeIntervals; k++ {
			for d := uint64(0); d < 5; d++ {
				if j := node(k) + d - 2; j >= lo && j <= hi {
					js = append(js, j)
				}
			}
		}
		for _, aj := range js {
			x := float64(aj) * float64(wn[i])
			levels := []float32{float32(math.Exp(-.5 * x * x))}
			k := (aj - lo) >> s
			for n := max(k, 1) - 1; n <= min(k+2, wedgeIntervals); n++ {
				xn := float64(node(n)) * float64(wn[i])
				bl, bh := bracketExp(math.Exp(-.5 * xn * xn))
				levels = append(levels, bl, bh)
			}
			for _, j := range []int32{int32(aj), -int32(aj)} {
				for _, l := range levels {
					check(i, j, math.Nextafter32(l, 0))
					check(i, j, l)
					check(i, j, math.Nextafter32(l, 2))
				}
			}
		}
	}
	t.Logf("sweep: %d checks, %d settled", checks, settled)

	s := NewStream(7)
	defer s.Release()
	tests, decided := 0, 0
	for tests < 1_000_000 {
		j := s.int32()
		i := j & 0x7F
		if i == 0 || absInt32(j) < kn[i] {
			continue
		}
		l := fn[i] + float32(float32(s.Float64())*(fn[i-1]-fn[i]))
		tests++
		accept, ok := decideWedge(i, absInt32(j), l)
		if !ok {
			continue
		}
		decided++
		x := float64(j) * float64(wn[i])
		if want := wedgeExact(x, l); accept != want {
			t.Fatalf("strip %d x %v l %v: decideWedge says accept=%v, the exact test %v", i, x, l, accept, want)
		}
	}
	frac := float64(decided) / float64(tests)
	t.Logf("random: %d wedge tests, %.1f%% settled without math.Exp", tests, 100*frac)
	if frac < 0.9 {
		t.Errorf("the bracket settled %.1f%% of the wedge tests, want at least 90%%", 100*frac)
	}
}

// TestBracketExpCoversExpError: the bracket of a node must hold every
// value math.Exp could return there under the stated accuracy, here any
// float64 within 64 ulps of the node's value (the margin is 4096). The
// values sit at and around float32 rounding midpoints across the
// wedge's range of exponentials, where a margin of the wrong sign, or
// none, drops a neighbour outside [lo, hi].
func TestBracketExpCoversExpError(t *testing.T) {
	for _, f := range []float32{fn[127], 0.01, 0.1, 0.25, 0.3, 0.5, 0.7, 0.9, fn[1]} {
		for _, m := range []float64{float64(f), (float64(f) + float64(math.Nextafter32(f, 2))) / 2} {
			e := m
			for range 4 {
				e = math.Nextafter(e, 0)
			}
			for d := -4; d <= 4; d++ {
				lo, hi := bracketExp(e)
				n := e
				for range 64 {
					n = math.Nextafter(n, 0)
				}
				for k := -64; k <= 64; k++ {
					if v := float32(n); v < lo || v > hi {
						t.Fatalf("bracketExp(%v) = [%v, %v] misses float32(%v) = %v, %d ulps away", e, lo, hi, n, v, k)
					}
					n = math.Nextafter(n, 2)
				}
				e = math.Nextafter(e, 2)
			}
		}
	}
}
