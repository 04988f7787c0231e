// Package fixed holds the integer kernels of the InFrame hot path: the
// float→uint8 quantizer, the camera's gamma-encode lookup table, the
// narrowing of integral float planes to 8-bit codes and the byte kernels
// that read those codes — the demultiplexer's streamed box-window sums and
// residual energy, and the warp's bilinear tap. The pipeline keeps its
// float32 frame representation (see package frame); what moves to integer
// arithmetic is the per-pixel inner loops, where transcendental calls
// (math.Pow, math.Round) and float rounding dominated the EndToEnd profile.
// Narrow8 is the one integrality test: a plane that narrows is read as
// bytes by every integer kernel, and one that does not keeps its float
// path.
//
// Two cutover classes exist, and DESIGN.md §5j keeps the ledger:
//
//   - Proven bit-identical: Round8 reproduces the math.Round-based
//     reference exactly over its whole domain (the proof is in the Round8
//     doc comment and pinned by TestFixedPointBitIdentity); RoundQ16 is
//     Round8 of a Q16 sample; Narrow8, EncodeRow, WindowRows and
//     RowAbsEnergy8 reproduce the kernels they replaced.
//   - Re-pinned: the Q16 gamma LUT (Gamma) and the integer window-sum
//     energy detector are *exact integer* or *bounded-error* replacements
//     whose outputs differ from the float reference in the last bits; the
//     golden baselines were re-pinned once, with the error-bound argument
//     recorded in DESIGN.md §5j.
//
// Q-format. Kernels use Q16 (16 fractional bits) in int32: pixel values
// live in [0, 255], so Q16 magnitudes stay below 2^24 and every
// interpolation product fits int32 with headroom. Each kernel's doc comment
// states the operand range its bound needs, and the tests sweep each
// kernel to the edges of that range.
package fixed

import "math"

// Round8 converts a float32 sample to its nearest uint8, saturating to
// [0, 255]: the fixed-point replacement for the
// math.Round-then-clamp reference (refRound8).
//
// Bit-identity argument: for x = float64(v),
//
//   - x ≤ 0, or NaN: the reference rounds to a non-positive value (or
//     propagates NaN into a conversion the Go spec leaves undefined) and
//     clamps to 0; returning 0 is exact for every defined case.
//   - 0 < x < 254.5: math.Round is half-away-from-zero, which for
//     positive x equals floor(x+0.5); x+0.5 is computed in float64 where
//     every float32-representable x keeps the sum either exact or, for
//     subnormal x, rounded to exactly 0.5 — truncation (the int32
//     conversion) of a positive value is floor, so int32(x+0.5) equals
//     the reference on all of (0, 254.5).
//   - x ≥ 254.5: the reference rounds half away from zero to ≥ 255 and
//     clamps; returning 255 matches (and keeps x+0.5 from ever being
//     converted out of int32 range for huge inputs).
func Round8(v float32) uint8 {
	x := float64(v)
	if !(x > 0) {
		return 0
	}
	if x >= 254.5 {
		return 255
	}
	return uint8(int32(x + 0.5))
}

// refRound8 is the float reference quantizer Round8 replaced, kept for the
// bit-identity tests.
func refRound8(v float32) uint8 {
	q := math.Round(float64(v))
	if q < 0 {
		q = 0
	} else if q > 255 {
		q = 255
	}
	//lint:ignore clamp q is saturated to [0,255] by the branches above; this is the reference the quant helpers are proven against
	return uint8(q)
}

// qBits is the fixed-point fraction width: Q16 in int32.
const qBits = 16

// gammaTableBits sizes the two gamma tables at 2^12 intervals each.
const gammaTableBits = 12

// gammaFineMax is the upper edge of the fine table's domain: the gamma
// curve's slope is unbounded at 0, so [0, 16) gets a 16× denser table.
const gammaFineMax = 16

// Gamma is a two-level Q16 lookup table for the camera ISP's gamma encode
// 255·(v/255)^(1/γ), replacing a per-pixel math.Pow. The coarse table
// spans [0, 256) at 1/16 steps; the fine table spans [0, 16) at 1/256
// steps, where the curve bends hardest. Between entries the kernel
// interpolates linearly in integer Q16.
//
// Error bound (γ = 2.2, the worst supported curvature in practice): the
// linear-interpolation error of a concave curve over a step h is at most
// |f”|·h²/8. On [16, 256) with h = 1/16 the error stays below 0.003
// drive units; on [1/256, 16) with h = 1/256 below 0.05; on the first
// fine interval [0, 1/256), where the derivative diverges, the chord
// deviates from the curve by at most 0.42 drive units — all well inside
// the camera model's read noise (σ = 2.5) and the ±0.5 ADC quantization
// that follow. The input truncation to Q16 adds at most 2^-16 · slope,
// bounded by the same first-interval term. DESIGN.md §5j records why this
// is a re-pin, not a bit-identical cutover.
type Gamma struct {
	invG float64
	// coarse[j] is interval j of the coarse table, nodes encode(j/16) and
	// encode((j+1)/16), as the Q16 pair {first node, second − first}.
	coarse [1 << gammaTableBits][2]int32
	// fine[j] is interval j of the fine table, nodes encode(j/256) and
	// encode((j+1)/256), as the same pair.
	fine [1 << gammaTableBits][2]int32
}

// NewGamma builds the encode table for exponent gamma (> 0).
func NewGamma(gamma float64) *Gamma {
	g := &Gamma{invG: 1 / gamma}
	// The encode curve maps [0, 255] onto [0, 255], so every Q16 node lies
	// in [0, 255·2^16] and fits int32.
	node := func(v float64) int32 {
		return int32(math.Round(255 * math.Pow(v/255, g.invG) * (1 << qBits)))
	}
	pairs := func(t *[1 << gammaTableBits][2]int32, step float64) {
		next := node(0)
		for j := range t {
			l0 := next
			next = node(float64(j+1) / step)
			t[j] = [2]int32{l0, next - l0}
		}
	}
	pairs(&g.coarse, 16)
	pairs(&g.fine, 256)
	return g
}

// refEncode is the float math.Pow reference the table replaces, kept for
// the error-bound tests.
func (g *Gamma) refEncode(v float32) float32 {
	if v <= 0 {
		return 0
	}
	return float32(255 * math.Pow(float64(v)/255, g.invG))
}

// Encode8 gamma-encodes one linear sample on the 0..255 scale: EncodeRow
// on a row of one.
func (g *Gamma) Encode8(v float32) float32 {
	row := [1]float32{v}
	g.EncodeRow(row[:])
	return row[0]
}

// EncodeRow gamma-encodes a row of linear samples on the 0..255 scale in
// place. Inputs at or above 255 fall back to the exact math.Pow (the curve
// passes through (255, 255) exactly, and the table does not extend past its
// domain); non-positive and NaN inputs encode to 0, as in the reference.
func (g *Gamma) EncodeRow(row []float32) {
	for i, v := range row {
		if !(v > 0) {
			row[i] = 0
			continue
		}
		if v >= 255 {
			//lint:ignore floateq 255 is exactly representable and the guard above already holds; equality selects the exact curve endpoint
			if v == 255 {
				row[i] = 255
			} else {
				row[i] = g.refEncode(v)
			}
			continue
		}
		// v < 255 ⇒ x < 255·2^16 < 2^24: exact int32, truncated to Q16.
		// Table nodes lie in [0, 255·2^16] and adjacent nodes differ by
		// less than 2^16, so each interpolation product stays below 2^24
		// (fine) or 2^28 (coarse). Each interval index is below 4096
		// (x>>8 < 2^12 under the fine bound, x>>12 < 255·16), so masking it
		// to 12 bits changes no index and drops the bounds check.
		x := int32(v * (1 << qBits))
		var q int32
		if x < gammaFineMax<<qBits {
			// Fine table: node step 1/256 = 2^8 in Q16.
			p := &g.fine[(x>>8)&(1<<gammaTableBits-1)]
			q = p[0] + (p[1]*(x&(1<<8-1)))>>8
		} else {
			// Coarse table: node step 1/16 = 2^12 in Q16.
			p := &g.coarse[(x>>gammaTableBits)&(1<<gammaTableBits-1)]
			q = p[0] + (p[1]*(x&(1<<gammaTableBits-1)))>>gammaTableBits
		}
		row[i] = float32(q) * (1.0 / (1 << qBits))
	}
}

// Narrow8 is the integrality test of every integer kernel: it reports
// whether each sample of src is an integer in [0, 255] and, while it is,
// writes that sample's 8-bit code to dst (len(dst) ≥ len(src)). −0 narrows
// to 0; a fraction, a value outside [0, 255], NaN or ±Inf stops the scan
// and returns false, leaving dst partly written. Quantized captures narrow;
// impaired frames with analog gain and rectified planes generally do not.
func Narrow8(dst []uint8, src []float32) bool {
	dst = dst[:len(src)]
	for i, v := range src {
		if !(v >= 0 && v <= 255) {
			return false
		}
		// Truncation never exceeds a non-negative v, so v is an integer iff
		// it is not above its truncation.
		u := int32(v)
		if v > float32(u) {
			return false
		}
		dst[i] = uint8(u)
	}
	return true
}

// WindowRows streams the (2r+1)×(2r+1) replicate-padded box window sums of
// an 8-bit w×h plane, one row at a time, top to bottom: Row(y) is the
// exact integer numerator of the box blur at row y, so sums[x] / (2r+1)²
// is the blurred pixel. Each source row's horizontal window sums are
// computed once, when the first row that needs them is asked for, into a
// ring of min(2r+1, h) rows; a row's vertical sum adds its 2r+1 window rows
// and is computed only when that row is asked for. Source rows outside
// every window asked for are never summed. A WindowRows is ready once
// Reset.
type WindowRows struct {
	pix     []uint8
	w, h, r int
	// ring holds the horizontal sums of source row j in slot j mod n; out
	// is the vertical sum of the last row asked for. A sum is at most
	// 255·(2r+1)², so plain ints hold it on any platform.
	ring, out []int
	n         int
	// next is the first source row not yet summed into the ring; last is
	// the last row asked for.
	next, last int
}

// WindowRowsScratch returns the scratch length WindowRows needs for
// a w×h plane at radius r: min(2r+1, h) ring rows and one output row.
func WindowRowsScratch(w, h, r int) int {
	return (min(2*r+1, h) + 1) * w
}

// Reset starts a scan of the w×h plane pix (len ≥ w·h) at radius r, with
// scratch at least WindowRowsScratch(w, h, r) long. r must lie in [1, 128].
func (s *WindowRows) Reset(pix []uint8, w, h, r int, scratch []int) {
	n := min(2*r+1, h)
	*s = WindowRows{pix: pix[:w*h], w: w, h: h, r: r,
		ring: scratch[:n*w], out: scratch[n*w : (n+1)*w], n: n, last: -1}
}

// Row returns the window sums of row y, len w, valid until the next call.
// Rows must be asked for in increasing order.
func (s *WindowRows) Row(y int) []int {
	if y <= s.last || y >= s.h {
		panic("fixed: WindowRows rows must increase within the plane")
	}
	s.last = y
	w, r := s.w, s.r
	// A window row j below next was summed earlier and is still resident:
	// only row j+n, beyond this window, would reuse its slot.
	for j := max(s.next, y-r); j <= min(y+r, s.h-1); j++ {
		k := j % s.n
		rowSums8(s.ring[k*w:(k+1)*w], s.pix[j*w:(j+1)*w], r)
		s.next = j + 1
	}
	slot := func(k int) []int {
		i := clampIdx(y+k, s.h) % s.n
		return s.ring[i*w : (i+1)*w]
	}
	sum3(s.out, slot(-r), slot(-r+1), slot(-r+2))
	for k := -r + 3; k <= r; k += 2 {
		add2(s.out, slot(k), slot(k+1))
	}
	return s.out
}

// rowSums8 writes the (2r+1)-wide replicate-padded window sums of row to
// out (len(out) = len(row)): one running sum, clamped at the two ends and
// direct in between.
func rowSums8(out []int, row []uint8, r int) {
	w := len(row)
	out = out[:w]
	s := 0
	for i := -r; i <= r; i++ {
		s += int(row[clampIdx(i, w)])
	}
	// Columns [lo, hi) read row[x−r] and row[x+r+1] inside the row.
	lo := min(r, w)
	hi := max(lo, w-r-1)
	for x := 0; x < lo; x++ {
		out[x] = s
		s += int(row[clampIdx(x+r+1, w)]) - int(row[clampIdx(x-r, w)])
	}
	if hi > lo {
		mid := out[lo:hi]
		in := row[lo+r+1:][:len(mid)]
		outgoing := row[lo-r:][:len(mid)]
		for i := range mid {
			mid[i] = s
			s += int(in[i]) - int(outgoing[i])
		}
	}
	for x := hi; x < w; x++ {
		out[x] = s
		s += int(row[clampIdx(x+r+1, w)]) - int(row[clampIdx(x-r, w)])
	}
}

// sum3 writes a + b + c to out, element by element.
func sum3(out, a, b, c []int) {
	a, b, c = a[:len(out)], b[:len(out)], c[:len(out)]
	for x := range out {
		out[x] = a[x] + b[x] + c[x]
	}
}

// add2 adds a + b to out, element by element.
func add2(out, a, b []int) {
	a, b = a[:len(out)], b[:len(out)]
	for x := range out {
		out[x] += a[x] + b[x]
	}
}

// clampIdx clamps a window coordinate into [0, n): replicate padding,
// matching frame.BoxBlurInto's edge handling.
func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// RowAbsEnergy8 accumulates Σ |pix[i]·scale − sums[i]| over one row span
// in exact integer arithmetic: the high-frequency chessboard energy
// numerator of the §3.3 detector, scaled by scale = (2r+1)², with sums a
// span of WindowRows' window sums at radius r. Each term is below
// 255·scale < 2^25 and the row total is an int64, so no row a capture can
// hold overflows it. scale must lie in [1, 66049], the (2r+1)² of r ≤ 128.
func RowAbsEnergy8(pix []uint8, sums []int, scale int) int64 {
	sums = sums[:len(pix)]
	var acc int64
	for i, v := range pix {
		d := int(v)*scale - sums[i]
		if d < 0 {
			d = -d
		}
		acc += int64(d)
	}
	return acc
}

// BilinearQ16 interpolates one bilinear tap in exact integer Q16: v00..v11
// are the four 8-bit pixel taps (top-left, top-right, bottom-left,
// bottom-right) and wx, wy are the Q16 fractional weights. The result is
// the Q16 sample in [0, 255·2¹⁶]; callers convert with float32(q)·2⁻¹⁶,
// which is exact, or round it to an 8-bit code with RoundQ16.
//
// Each lerp is written as the convex combination a·(2¹⁶−w) + b·w, which is
// a·2¹⁶ + (b−a)·w exactly. Overflow argument: the horizontal lerps have
// non-negative products below 255·2¹⁶ < 2²⁴, so they fit int32; the
// vertical blend's products reach 255·2³² and run in int64 before the
// shift, a floor division of a non-negative sum by 2¹⁶, brings the result
// back under 2²⁴. wx and wy must each lie in [0, 2¹⁶].
func BilinearQ16(v00, v01, v10, v11 uint8, wx, wy int32) int32 {
	const one = 1 << qBits
	top := int32(v00)*(one-wx) + int32(v01)*wx
	bot := int32(v10)*(one-wx) + int32(v11)*wx
	return int32((int64(top)*int64(one-wy) + int64(bot)*int64(wy)) >> qBits)
}

// RoundQ16 returns the 8-bit code of a Q16 sample q in [0, 255·2¹⁶] (the
// range of BilinearQ16) rounded half up: exactly Round8(float32(q)·2⁻¹⁶),
// the code the sample's float value would quantize to.
//
// Bit-identity argument: q < 2²⁴, so float32(q)·2⁻¹⁶ is exact and Round8
// sees x = q/2¹⁶. At q = 0 it returns 0 = (0 + 2¹⁵) >> 16. For
// 0 < x < 254.5 it returns ⌊x + 0.5⌋ = ⌊(q + 2¹⁵)/2¹⁶⌋, which is the shift
// of a non-negative integer. For x ≥ 254.5 it returns 255, and there
// q + 2¹⁵ lies in [255·2¹⁶, 255·2¹⁶ + 2¹⁵], whose shift is 255 as well.
// q must lie in [0, 255·2¹⁶]: the kernel does not saturate.
func RoundQ16(q int32) uint8 {
	return uint8((q + 1<<(qBits-1)) >> qBits)
}
