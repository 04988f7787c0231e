package fixed

import (
	"math"
	"math/rand"
	"testing"
)

// adversarialSamples covers every rounding boundary of the 8-bit domain plus
// the specials the kernels must not mishandle: exact integers, exact halves,
// the nearest representable neighbours of each half, negatives, overflow,
// subnormals, infinities and NaN.
func adversarialSamples() []float32 {
	vals := []float32{
		0, float32(math.Copysign(0, -1)), 255, 255.0000001, 256, 1000,
		-1, -0.5, -255, 254.5, 255.5, 1e-45, 1e-38, 1e20, -1e20,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		1.0 / 3, 2.0 / 3, 100.0 / 7, 254.0 + 1.0/3,
	}
	for i := 0; i <= 255; i++ {
		v := float32(i)
		vals = append(vals, v, v+0.5, v-0.5, v+0.25, v-0.25,
			math.Nextafter32(v+0.5, 0), math.Nextafter32(v+0.5, 1000))
	}
	return vals
}

// TestFixedPointBitIdentity pins the proven-identical cutover class of
// DESIGN.md §5j: Round8 must agree with the math.Round reference on every
// defined input. NaN is the one input the reference leaves undefined (a
// float→int conversion of NaN); there only Round8's own contract (0) is
// checked.
func TestFixedPointBitIdentity(t *testing.T) {
	check := func(v float32) {
		t.Helper()
		if math.IsNaN(float64(v)) {
			if got := Round8(v); got != 0 {
				t.Fatalf("Round8(NaN) = %d, want 0", got)
			}
			return
		}
		if got, want := Round8(v), refRound8(v); got != want {
			t.Fatalf("Round8(%v) = %d, reference %d", v, got, want)
		}
	}
	for _, v := range adversarialSamples() {
		check(v)
	}
	// Dense sweep in 1/256 steps across and beyond the whole domain.
	for i := -2560; i <= 258*256; i++ {
		check(float32(i) / 256)
	}
	// Random float32 bit patterns: every finite value must still agree.
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200000; i++ {
		v := math.Float32frombits(rng.Uint32())
		if math.IsNaN(float64(v)) {
			continue
		}
		check(v)
	}
}

// TestGammaErrorBound pins the re-pinned cutover class: the two-level Q16
// table must stay within the §5j interpolation bounds of the math.Pow
// reference on every supported curve, and must be exact at the endpoints.
func TestGammaErrorBound(t *testing.T) {
	for _, gamma := range []float64{1.8, 2.2, 2.4} {
		g := NewGamma(gamma)
		// The §5j bounds (0.42 / 0.05 / 0.003 plus truncation slack) hold for
		// curvature up to γ = 2.2; steeper curves diverge harder at 0, where
		// the analytic chord bound is encode(1/256)·max(t^(1/γ)−t) ≈ 0.78 for
		// γ = 2.4.
		first, fine, coarse := 0.47, 0.06, 0.01
		if gamma > 2.2 {
			first, fine = 0.85, 0.11
		}
		for i := 0; i <= 255*512; i++ {
			v := float32(i) / 512
			got := float64(g.Encode8(v))
			want := float64(g.refEncode(v))
			var bound float64
			switch x := float64(v); {
			case x < 1.0/256:
				bound = first // chord error where the derivative diverges
			case x < gammaFineMax:
				bound = fine // fine table, step 1/256
			default:
				bound = coarse // coarse table, step 1/16
			}
			if math.Abs(got-want) > bound {
				t.Fatalf("gamma %.1f: Encode8(%v) = %v, reference %v, bound %v",
					gamma, v, got, want, bound)
			}
		}
		if got := g.Encode8(255); got != 255 {
			t.Fatalf("gamma %.1f: Encode8(255) = %v, want exactly 255", gamma, got)
		}
		for _, v := range []float32{0, -1, -255, float32(math.NaN())} {
			if got := g.Encode8(v); got != 0 {
				t.Fatalf("gamma %.1f: Encode8(%v) = %v, want 0", gamma, v, got)
			}
		}
		// Above the table domain the exact reference takes over.
		for _, v := range []float32{255.5, 260, 1000} {
			if got, want := g.Encode8(v), g.refEncode(v); got != want {
				t.Fatalf("gamma %.1f: Encode8(%v) = %v, want reference %v", gamma, v, got, want)
			}
		}
	}
}

func TestIsIntegral8(t *testing.T) {
	if !IsIntegral8([]float32{0, 1, 127, 255}) {
		t.Fatal("integral plane rejected")
	}
	for _, bad := range [][]float32{
		{0.5}, {-1}, {256}, {float32(math.NaN())}, {float32(math.Inf(1))},
		{0, 255, 254.5},
	} {
		if IsIntegral8(bad) {
			t.Fatalf("non-integral plane %v accepted", bad)
		}
	}
	if !IsIntegral8(nil) {
		t.Fatal("empty plane should be trivially integral")
	}
}

// naiveWindowSum is the O(r²)-per-pixel reference for the separable kernel:
// the replicate-padded box window sum at (x, y).
func naiveWindowSum(pix []float32, w, h, r, x, y int) int32 {
	var s int32
	for dy := -r; dy <= r; dy++ {
		yy := clampIdx(y+dy, h)
		for dx := -r; dx <= r; dx++ {
			s += int32(pix[yy*w+clampIdx(x+dx, w)])
		}
	}
	return s
}

func integralPlanes(w, h int) map[string][]float32 {
	n := w * h
	all0 := make([]float32, n)
	all255 := make([]float32, n)
	edges := make([]float32, n)
	random := make([]float32, n)
	rng := rand.New(rand.NewSource(3))
	edgeVals := []float32{0, 255, 20, 235, 1, 254}
	for i := 0; i < n; i++ {
		all255[i] = 255
		edges[i] = edgeVals[i%len(edgeVals)]
		random[i] = float32(rng.Intn(256))
	}
	return map[string][]float32{"all0": all0, "all255": all255, "edges": edges, "random": random}
}

// TestWindowSumsMatchesNaive: the separable sliding-window kernel must equal
// the direct window sum exactly — integer arithmetic leaves no tolerance.
func TestWindowSumsMatchesNaive(t *testing.T) {
	const w, h = 23, 17
	for name, pix := range integralPlanes(w, h) {
		if !IsIntegral8(pix) {
			t.Fatalf("%s: fixture violates the kernel precondition", name)
		}
		for _, r := range []int{1, 2, 5, 8, 16} {
			sums := make([]int32, w*h)
			col := make([]int32, WindowScratch(w, h, r))
			WindowSums(pix, w, h, r, sums, col)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					if want := naiveWindowSum(pix, w, h, r, x, y); sums[y*w+x] != want {
						t.Fatalf("%s r=%d: sums[%d,%d] = %d, want %d", name, r, x, y, sums[y*w+x], want)
					}
				}
			}
		}
	}
}

// TestWindowSumsThinPlanes: the row-major column pass keeps min(r+1, h)
// saved row sums, so planes no taller than the window (one row, two rows)
// and one column wide take the edge cases of its ring; each must still
// equal the direct window sum, with the scratch exactly WindowScratch long.
func TestWindowSumsThinPlanes(t *testing.T) {
	for _, sz := range [][2]int{{5, 1}, {7, 2}, {1, 9}, {6, 3}} {
		w, h := sz[0], sz[1]
		pix := integralPlanes(w, h)["random"]
		for _, r := range []int{1, 2, 3, 16} {
			sums := make([]int32, w*h)
			col := make([]int32, WindowScratch(w, h, r))
			WindowSums(pix, w, h, r, sums, col)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					if want := naiveWindowSum(pix, w, h, r, x, y); sums[y*w+x] != want {
						t.Fatalf("%dx%d r=%d: sums[%d,%d] = %d, want %d", w, h, r, x, y, sums[y*w+x], want)
					}
				}
			}
		}
	}
}

// TestRowAbsEnergyMatchesNaive: the row kernel must equal the direct
// Σ|pix·scale − sums| in exact integer arithmetic.
func TestRowAbsEnergyMatchesNaive(t *testing.T) {
	const w, h = 23, 17
	for name, pix := range integralPlanes(w, h) {
		for _, r := range []int{1, 5, 128} {
			sums := make([]int32, w*h)
			col := make([]int32, WindowScratch(w, h, r))
			WindowSums(pix, w, h, r, sums, col)
			side := int32(2*r + 1)
			scale := side * side
			for y := 0; y < h; y++ {
				row := pix[y*w : (y+1)*w]
				srow := sums[y*w : (y+1)*w]
				var want int64
				for i, v := range row {
					d := int64(int32(v))*int64(scale) - int64(srow[i])
					if d < 0 {
						d = -d
					}
					want += d
				}
				if got := RowAbsEnergy(row, srow, scale); got != want {
					t.Fatalf("%s r=%d row %d: RowAbsEnergy = %d, want %d", name, r, y, got, want)
				}
			}
		}
	}
}

// TestBilinearQ16MatchesFloat pins the warp kernel's tap against the float
// reference: corner weights are exact, and over seeded random taps and
// weights the Q16 result stays within one quantization step (2⁻¹⁶ weight
// resolution on 8-bit magnitudes keeps the Q16 error below 8 ULPs, i.e.
// well under 2⁻¹² drive units after the exact float conversion).
func TestBilinearQ16MatchesFloat(t *testing.T) {
	const qOne = 1 << qBits
	ref := func(v00, v01, v10, v11 int32, wx, wy float64) float64 {
		top := float64(v00) + (float64(v01)-float64(v00))*wx
		bot := float64(v10) + (float64(v11)-float64(v10))*wx
		return top + (bot-top)*wy
	}
	// Corner weights select taps exactly.
	corners := []struct {
		wx, wy int32
		want   func(v00, v01, v10, v11 int32) int32
	}{
		{0, 0, func(v00, _, _, _ int32) int32 { return v00 }},
		{qOne, 0, func(_, v01, _, _ int32) int32 { return v01 }},
		{0, qOne, func(_, _, v10, _ int32) int32 { return v10 }},
		{qOne, qOne, func(_, _, _, v11 int32) int32 { return v11 }},
	}
	taps := [][4]int32{{0, 0, 0, 0}, {255, 255, 255, 255}, {0, 255, 255, 0}, {17, 200, 3, 91}}
	for _, tp := range taps {
		for _, c := range corners {
			got := BilinearQ16(tp[0], tp[1], tp[2], tp[3], c.wx, c.wy)
			if want := c.want(tp[0], tp[1], tp[2], tp[3]) << qBits; got != want {
				t.Fatalf("taps %v weights (%d,%d): got %d, want %d", tp, c.wx, c.wy, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 20000; n++ {
		v00, v01 := int32(rng.Intn(256)), int32(rng.Intn(256))
		v10, v11 := int32(rng.Intn(256)), int32(rng.Intn(256))
		wx, wy := int32(rng.Intn(qOne+1)), int32(rng.Intn(qOne+1))
		got := float64(BilinearQ16(v00, v01, v10, v11, wx, wy)) / qOne
		want := ref(v00, v01, v10, v11, float64(wx)/qOne, float64(wy)/qOne)
		if math.Abs(got-want) > 1.0/(1<<12) {
			t.Fatalf("taps (%d,%d,%d,%d) weights (%d,%d): got %v, want %v",
				v00, v01, v10, v11, wx, wy, got, want)
		}
	}
}
