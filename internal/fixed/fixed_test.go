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

// TestRoundQ16MatchesRound8 checks RoundQ16 against Round8 of the sample's
// float value on every Q16 sample BilinearQ16 can return: all 255·2¹⁶ + 1
// of them, each half-way tie included.
func TestRoundQ16MatchesRound8(t *testing.T) {
	for q := int32(0); q <= 255<<16; q++ {
		if got, want := RoundQ16(q), Round8(float32(q)*(1.0/(1<<16))); got != want {
			t.Fatalf("RoundQ16(%d) = %d, Round8 of %v = %d", q, got, float32(q)*(1.0/(1<<16)), want)
		}
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

// refEncode8 is the per-sample Encode8 that EncodeRow replaced, verbatim
// but for the receiver turned parameter and the dropped lint directives.
func refEncode8(g *Gamma, v float32) float32 {
	if !(v > 0) {
		return 0
	}
	if v >= 255 {
		if v == 255 {
			return 255
		}
		return g.refEncode(v)
	}
	// v < 255 ⇒ x < 255·2^16 < 2^24: exact int32, truncated to Q16.
	x := int32(v * (1 << qBits))
	var q int32
	if x < gammaFineMax<<qBits {
		// Fine table: node step 1/256 = 2^8 in Q16.
		i := x >> 8
		f := x & (1<<8 - 1)
		l0 := g.fine[i]
		q = l0 + ((g.fine[i+1]-l0)*f)>>8
	} else {
		// Coarse table: node step 1/16 = 2^12 in Q16.
		i := x >> gammaTableBits
		f := x & (1<<gammaTableBits - 1)
		l0 := g.coarse[i]
		q = l0 + ((g.coarse[i+1]-l0)*f)>>gammaTableBits
	}
	return float32(q) * (1.0 / (1 << qBits))
}

// TestEncodeRowMatchesEncode8: the row method (and Encode8, now a row of
// one) must return the bits of the per-sample Encode8 it replaced for every
// sample: a dense Q16 sweep of the table domain, both sides of the
// fine/coarse boundary at 16·2¹⁶, and the specials each branch handles
// (0, −0, negatives, NaN, 255, above 255, +Inf).
func TestEncodeRowMatchesEncode8(t *testing.T) {
	specials := []float32{
		0, float32(math.Copysign(0, -1)), -1, -0.5, -255, float32(math.Inf(-1)),
		float32(math.NaN()), 1e-45, 1e-38, 1.0 / (1 << 16),
		math.Nextafter32(16, 0), 16, math.Nextafter32(16, 300),
		254, math.Nextafter32(255, 0), 255, math.Nextafter32(255, 300),
		255.5, 256, 1000, 1e20, float32(math.Inf(1)),
	}
	for _, gamma := range []float64{1.8, 2.2, 2.4} {
		g := NewGamma(gamma)
		check := func(in []float32) {
			t.Helper()
			row := append([]float32(nil), in...)
			g.EncodeRow(row)
			for i, v := range in {
				want := math.Float32bits(refEncode8(g, v))
				if got := math.Float32bits(row[i]); got != want {
					t.Fatalf("gamma %.1f: EncodeRow(%v) = %v, reference %v", gamma, v, row[i], refEncode8(g, v))
				}
				if got := math.Float32bits(g.Encode8(v)); got != want {
					t.Fatalf("gamma %.1f: Encode8(%v) = %v, reference %v", gamma, v, g.Encode8(v), refEncode8(g, v))
				}
			}
		}
		check(specials)
		// Every Q16 step of [0, 255], a 640-sample row at a time.
		row := make([]float32, 640)
		for i := 0; i <= 255<<qBits; i += len(row) {
			for k := range row {
				row[k] = float32(i+k) / (1 << qBits)
			}
			check(row)
		}
	}
}

// refIsIntegral8 is the integrality scan Narrow8 replaced, verbatim: the
// reference for its accept set.
func refIsIntegral8(pix []float32) bool {
	for _, v := range pix {
		if !(v >= 0 && v <= 255) {
			return false
		}
		if v != float32(int32(v)) {
			return false
		}
	}
	return true
}

// TestNarrow8MatchesIsIntegral8: Narrow8 must accept exactly the planes the
// old integrality scan accepted and write each accepted sample's code. Each
// hostile sample (every adversarial value: halves and their neighbours,
// −0, 256, −1, NaN, ±Inf, subnormals, huge magnitudes) sits in an
// otherwise integral plane as its first, a middle and its last sample.
func TestNarrow8MatchesIsIntegral8(t *testing.T) {
	check := func(src []float32) {
		t.Helper()
		dst := make([]uint8, len(src))
		got, want := Narrow8(dst, src), refIsIntegral8(src)
		if got != want {
			t.Fatalf("Narrow8 = %v, IsIntegral8 = %v on %v", got, want, src)
		}
		if !got {
			return
		}
		for i, v := range src {
			if float32(dst[i]) != v {
				t.Fatalf("Narrow8 wrote %d for %v", dst[i], v)
			}
		}
	}
	all := make([]float32, 256)
	for i := range all {
		all[i] = float32(255 - i)
	}
	check(all)
	check(nil)
	const n = 7
	for _, v := range adversarialSamples() {
		for _, at := range []int{0, n / 2, n - 1} {
			src := make([]float32, n)
			for i := range src {
				src[i] = float32((i * 37) % 256)
			}
			src[at] = v
			check(src)
		}
	}
	// −0 narrows to code 0.
	dst := []uint8{9}
	if !Narrow8(dst, []float32{float32(math.Copysign(0, -1))}) || dst[0] != 0 {
		t.Fatalf("Narrow8(−0) wrote %d", dst[0])
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 100000; i++ {
		check([]float32{math.Float32frombits(rng.Uint32())})
	}
}

// naiveWindowSum is the O(r²)-per-pixel reference for the window sums:
// the replicate-padded box window sum at (x, y).
func naiveWindowSum(pix []uint8, w, h, r, x, y int) int {
	s := 0
	for dy := -r; dy <= r; dy++ {
		yy := clampIdx(y+dy, h)
		for dx := -r; dx <= r; dx++ {
			s += int(pix[yy*w+clampIdx(x+dx, w)])
		}
	}
	return s
}

func bytePlanes(w, h int) map[string][]uint8 {
	n := w * h
	all0 := make([]uint8, n)
	all255 := make([]uint8, n)
	edges := make([]uint8, n)
	random := make([]uint8, n)
	rng := rand.New(rand.NewSource(3))
	edgeVals := []uint8{0, 255, 20, 235, 1, 254}
	for i := 0; i < n; i++ {
		all255[i] = 255
		edges[i] = edgeVals[i%len(edgeVals)]
		random[i] = uint8(rng.Intn(256))
	}
	return map[string][]uint8{"all0": all0, "all255": all255, "edges": edges, "random": random}
}

// checkWindowRows asks a WindowRows over pix for the rows in ys and
// compares each with the direct window sum, through scratch exactly
// WindowRowsScratch long and dirty.
func checkWindowRows(t *testing.T, name string, pix []uint8, w, h, r int, ys []int) {
	t.Helper()
	scratch := make([]int, WindowRowsScratch(w, h, r))
	for i := range scratch {
		scratch[i] = -12345
	}
	var s WindowRows
	s.Reset(pix, w, h, r, scratch)
	for _, y := range ys {
		sums := s.Row(y)
		for x := 0; x < w; x++ {
			if want := naiveWindowSum(pix, w, h, r, x, y); sums[x] != want {
				t.Fatalf("%s %dx%d r=%d: row %d sums[%d] = %d, want %d", name, w, h, r, y, x, sums[x], want)
			}
		}
	}
}

// TestWindowRowsMatchesNaive: the streamed window sums must equal the
// direct window sum exactly — integer arithmetic leaves no tolerance —
// whether every row is asked for or only some, as the Block scan does.
func TestWindowRowsMatchesNaive(t *testing.T) {
	const w, h = 23, 17
	every := make([]int, h)
	for y := range every {
		every[y] = y
	}
	sparse := []int{0, 3, 4, 5, 11, 12, 16}
	for name, pix := range bytePlanes(w, h) {
		for _, r := range []int{1, 2, 3, 5, 8, 16} {
			checkWindowRows(t, name, pix, w, h, r, every)
			checkWindowRows(t, name, pix, w, h, r, sparse)
			checkWindowRows(t, name, pix, w, h, r, []int{h - 1})
		}
	}
}

// TestWindowRowsThinPlanes: planes no wider or taller than the window (one
// row, two rows, one column) clamp every tap; their ring keeps only h rows,
// and each row must still equal the direct window sum.
func TestWindowRowsThinPlanes(t *testing.T) {
	for _, sz := range [][2]int{{5, 1}, {7, 2}, {1, 9}, {6, 3}, {3, 3}, {2, 7}, {1, 1}} {
		w, h := sz[0], sz[1]
		pix := bytePlanes(w, h)["random"]
		ys := make([]int, h)
		for y := range ys {
			ys[y] = y
		}
		for _, r := range []int{1, 2, 3, 16} {
			checkWindowRows(t, "random", pix, w, h, r, ys)
		}
	}
}

// TestWindowRowsRowOrder: a row asked for out of order panics, since the
// ring no longer holds what its window needs.
func TestWindowRowsRowOrder(t *testing.T) {
	pix := bytePlanes(6, 6)["random"]
	var s WindowRows
	s.Reset(pix, 6, 6, 1, make([]int, WindowRowsScratch(6, 6, 1)))
	s.Row(3)
	defer func() {
		if recover() == nil {
			t.Fatal("Row(2) after Row(3) did not panic")
		}
	}()
	s.Row(2)
}

// TestRowAbsEnergy8MatchesNaive: the row kernel must equal the direct
// Σ|pix·scale − sums| in exact integer arithmetic, up to the largest
// radius its doc comment admits, and at that radius's extreme terms across
// a whole 1280-wide capture row.
func TestRowAbsEnergy8MatchesNaive(t *testing.T) {
	const w, h = 23, 17
	for name, pix := range bytePlanes(w, h) {
		for _, r := range []int{1, 5, 128} {
			var s WindowRows
			s.Reset(pix, w, h, r, make([]int, WindowRowsScratch(w, h, r)))
			side := 2*r + 1
			scale := side * side
			for y := 0; y < h; y++ {
				row := pix[y*w : (y+1)*w]
				srow := s.Row(y)
				var want int64
				for x, v := range row {
					d := int64(v)*int64(scale) - int64(naiveWindowSum(pix, w, h, r, x, y))
					if d < 0 {
						d = -d
					}
					want += d
				}
				if got := RowAbsEnergy8(row, srow, scale); got != want {
					t.Fatalf("%s r=%d row %d: RowAbsEnergy8 = %d, want %d", name, r, y, got, want)
				}
			}
		}
	}
	// The documented extremes on a 1280-wide row: every term at its bound
	// 255·66049, half of them from a negative difference, so the row total
	// is ≈ 2.2·10¹⁰, about ten times 2³¹ — a narrower accumulator wraps.
	const wide, maxScale = 1280, 66049
	full, alt := make([]uint8, wide), make([]uint8, wide)
	zero, opposite := make([]int, wide), make([]int, wide)
	for i := range full {
		full[i] = 255
		if i%2 == 1 {
			alt[i] = 255
		} else {
			opposite[i] = 255 * maxScale
		}
	}
	for _, c := range []struct {
		name string
		pix  []uint8
		sums []int
	}{
		{"all 255, sums 0", full, zero},
		{"alternating 0/255, sums at the opposite extreme", alt, opposite},
	} {
		var want int64
		for i, v := range c.pix {
			d := int64(v)*maxScale - int64(c.sums[i])
			if d < 0 {
				d = -d
			}
			want += d
		}
		if want <= math.MaxInt32 {
			t.Fatalf("%s: total %d does not exceed 2³¹", c.name, want)
		}
		if got := RowAbsEnergy8(c.pix, c.sums, maxScale); got != want {
			t.Fatalf("%s: RowAbsEnergy8 = %d, want %d", c.name, got, want)
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
	ref := func(v00, v01, v10, v11 uint8, wx, wy float64) float64 {
		top := float64(v00) + float64((float64(v01)-float64(v00))*wx)
		bot := float64(v10) + float64((float64(v11)-float64(v10))*wx)
		return top + float64((bot-top)*wy)
	}
	// Corner weights select taps exactly.
	corners := []struct {
		wx, wy int32
		want   func(v00, v01, v10, v11 uint8) uint8
	}{
		{0, 0, func(v00, _, _, _ uint8) uint8 { return v00 }},
		{qOne, 0, func(_, v01, _, _ uint8) uint8 { return v01 }},
		{0, qOne, func(_, _, v10, _ uint8) uint8 { return v10 }},
		{qOne, qOne, func(_, _, _, v11 uint8) uint8 { return v11 }},
	}
	taps := [][4]uint8{{0, 0, 0, 0}, {255, 255, 255, 255}, {0, 255, 255, 0}, {17, 200, 3, 91}}
	for _, tp := range taps {
		for _, c := range corners {
			got := BilinearQ16(tp[0], tp[1], tp[2], tp[3], c.wx, c.wy)
			if want := int32(c.want(tp[0], tp[1], tp[2], tp[3])) << qBits; got != want {
				t.Fatalf("taps %v weights (%d,%d): got %d, want %d", tp, c.wx, c.wy, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 20000; n++ {
		v00, v01 := uint8(rng.Intn(256)), uint8(rng.Intn(256))
		v10, v11 := uint8(rng.Intn(256)), uint8(rng.Intn(256))
		wx, wy := int32(rng.Intn(qOne+1)), int32(rng.Intn(qOne+1))
		got := float64(float64(BilinearQ16(v00, v01, v10, v11, wx, wy)) / qOne)
		want := ref(v00, v01, v10, v11, float64(wx)/qOne, float64(wy)/qOne)
		if math.Abs(got-want) > 1.0/(1<<12) {
			t.Fatalf("taps (%d,%d,%d,%d) weights (%d,%d): got %v, want %v",
				v00, v01, v10, v11, wx, wy, got, want)
		}
	}
}
