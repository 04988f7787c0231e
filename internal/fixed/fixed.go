// Package fixed holds the int32 fixed-point kernels of the InFrame hot
// path: the float→uint8 quantizer, the camera's gamma-encode lookup table
// and the demultiplexer's integer box-window energy primitives. The
// pipeline keeps its float32 frame representation (see package frame);
// what moves to integer arithmetic is the per-pixel inner loops, where
// transcendental calls (math.Pow, math.Round) and float rounding dominated
// the EndToEnd profile.
//
// Two cutover classes exist, and DESIGN.md §5j keeps the ledger:
//
//   - Proven bit-identical: Round8 reproduces the math.Round-based
//     reference exactly over its whole domain (the proof is in the Round8
//     doc comment and pinned by TestFixedPointBitIdentity).
//   - Re-pinned: the Q16 gamma LUT (Gamma) and the integer window-sum
//     energy kernel are *exact integer* or *bounded-error* replacements
//     whose outputs differ from the float reference in the last bits; the
//     golden baselines were re-pinned once, with the error-bound argument
//     recorded in DESIGN.md §5j.
//
// Q-format. Kernels use Q16 (16 fractional bits) in int32: pixel values
// live in [0, 255], so Q16 magnitudes stay below 2^24 and every
// interpolation product fits int32 with headroom (the //range contracts
// below make the bounds checkable by the intrange analyzer).
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
	// coarse[i] is Q16 of encode(i/16), i in [0, 4096].
	coarse [1<<gammaTableBits + 1]int32
	// fine[i] is Q16 of encode(i/256), i in [0, 4096].
	fine [1<<gammaTableBits + 1]int32
}

// NewGamma builds the encode table for exponent gamma (> 0).
func NewGamma(gamma float64) *Gamma {
	g := &Gamma{invG: 1 / gamma}
	for i := range g.coarse {
		v := float64(i) / 16
		g.coarse[i] = int32(math.Round(255 * math.Pow(v/255, g.invG) * (1 << qBits))) //lint:ignore intrange the encode curve maps [0,255]→[0,255], so the Q16 node value is bounded by 255·2^16 < 2^24
	}
	for i := range g.fine {
		v := float64(i) / 256
		g.fine[i] = int32(math.Round(255 * math.Pow(v/255, g.invG) * (1 << qBits))) //lint:ignore intrange same bound: curve node values stay below 2^24
	}
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

// Encode8 gamma-encodes one linear sample on the 0..255 scale. Inputs at
// or above 255 fall back to the exact math.Pow (the curve passes through
// (255, 255) exactly, and the table does not extend past its domain);
// non-positive and NaN inputs encode to 0, as in the reference.
func (g *Gamma) Encode8(v float32) float32 {
	if !(v > 0) {
		return 0
	}
	if v >= 255 {
		//lint:ignore floateq 255 is exactly representable and the guard above already holds; equality selects the exact curve endpoint
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
		q = l0 + ((g.fine[i+1]-l0)*f)>>8 //lint:ignore intrange table nodes lie in [0, 255·2^16] and adjacent nodes differ by < 2^16, so the interpolation product stays below 2^24
	} else {
		// Coarse table: node step 1/16 = 2^12 in Q16.
		i := x >> gammaTableBits
		f := x & (1<<gammaTableBits - 1)
		l0 := g.coarse[i]
		q = l0 + ((g.coarse[i+1]-l0)*f)>>gammaTableBits //lint:ignore intrange same node bounds as the fine path: the Q16 interpolation product stays below 2^28
	}
	return float32(q) * (1.0 / (1 << qBits))
}

// IsIntegral8 reports whether every sample is an integer in [0, 255] —
// the precondition for the exact integer window-sum kernels (quantized
// captures satisfy it; impaired frames with analog gain generally do not).
func IsIntegral8(pix []float32) bool {
	for _, v := range pix {
		if !(v >= 0 && v <= 255) {
			return false
		}
		//lint:ignore floateq integrality is an exact property: v is integral iff it round-trips through int32
		if v != float32(int32(v)) {
			return false
		}
	}
	return true
}

// WindowScratch returns the length of the col scratch WindowSums needs
// for a w×h plane at radius r: min(r+1, h) saved row sums plus one row of
// running column sums, each w wide.
func WindowScratch(w, h, r int) int {
	return (min(r+1, h) + 1) * w
}

// WindowSums computes, for every pixel of an integral-valued w×h plane,
// the (2r+1)×(2r+1) replicate-padded box window sum into sums (len w·h),
// as two separable integer sliding passes: rows, then columns in place,
// walked row by row with one running sum per column. col is the column
// pass's scratch, at least WindowScratch(w, h, r) long. The result is the
// exact integer numerator of the box blur the float demodulator computed
// with rounding: sums[i] / (2r+1)² is the blurred plane.
//
//range:r 1,128
func WindowSums(pix []float32, w, h, r int, sums, col []int32) {
	// Row pass: sums[y*w+x] = Σ pix[y*w+clamp(x-r..x+r)].
	for y := 0; y < h; y++ {
		row := pix[y*w : (y+1)*w]
		out := sums[y*w : (y+1)*w]
		var s int32
		for i := -r; i <= r; i++ {
			s += int32(row[clampIdx(i, w)])
		}
		for x := 0; x < w; x++ {
			out[x] = s
			s += int32(row[clampIdx(x+r+1, w)]) - int32(row[clampIdx(x-r, w)])
		}
	}
	// Column pass over the row sums, in place and row-major: acc holds each
	// column's running window sum. Writing output row y overwrites row sum
	// y, which the window still subtracts r rows later (row 0 up to row r,
	// by replicate padding), so each row sum is saved first in a ring of n
	// rows: slot y mod n is next rewritten at row y+n > y+r. The rows the
	// window adds lie below y and are still unwritten. Integer sums are
	// exact, so walking rows instead of columns gives the same integers.
	n := min(r+1, h)
	ring := col[:n*w]
	acc := col[n*w : (n+1)*w]
	clear(acc)
	for i := -r; i <= r; i++ {
		in := sums[clampIdx(i, h)*w:][:w]
		for x, v := range in {
			acc[x] += v
		}
	}
	for y := 0; y < h; y++ {
		out := sums[y*w : (y+1)*w]
		saved := ring[(y%n)*w:][:w]
		if y == h-1 {
			copy(out, acc)
			break
		}
		in := sums[clampIdx(y+r+1, h)*w:][:w]
		outgoing := ring[(clampIdx(y-r, h)%n)*w:][:w]
		for x, s := range acc {
			saved[x] = out[x]
			out[x] = s
			acc[x] = s + (in[x] - outgoing[x])
		}
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

// BilinearQ16 interpolates one bilinear tap in exact integer Q16: v00..v11
// are the four integral pixel taps (top-left, top-right, bottom-left,
// bottom-right, each in [0, 255] under the IsIntegral8 precondition) and
// wx, wy are the Q16 fractional weights. The result is the Q16 sample;
// callers convert with float32(q)·2⁻¹⁶, which is exact.
//
// Overflow argument: each horizontal lerp v0·2¹⁶ + (v1−v0)·wx is a convex
// combination in [0, 255·2¹⁶] with every product below 255·2¹⁶ < 2²⁴, so it
// fits int32; the vertical blend's product (bot−top)·wy reaches 255·2³² and
// runs in int64 before the shift brings it back under 2²⁴.
//
//range:wx 0,65536
//range:wy 0,65536
func BilinearQ16(v00, v01, v10, v11, wx, wy int32) int32 {
	top := v00<<qBits + (v01-v00)*wx
	bot := v10<<qBits + (v11-v10)*wx //lint:ignore intrange taps are in [0,255] under the IsIntegral8 precondition, so each Q16 lerp product stays below 255·2^16 < 2^24
	return top + int32((int64(bot-top)*int64(wy))>>qBits)
}

// RowAbsEnergy accumulates Σ |pix[i]·scale − sums[i]| over one row span in
// exact integer arithmetic: the high-frequency chessboard energy numerator
// of the §3.3 detector, scaled by scale = (2r+1)². Each term is bounded by
// 255·scale (< 2^25 for r ≤ 128), so the int32 difference cannot wrap; the
// row accumulator is int64 so no row width can overflow it.
//
//range:scale 1,66049
func RowAbsEnergy(pix []float32, sums []int32, scale int32) int64 {
	var acc int64
	for i, v := range pix {
		//lint:ignore intrange callers guarantee IsIntegral8(pix), so v converts exactly within [0, 255]
		d := int32(v)*scale - sums[i] //lint:ignore intrange both terms are bounded by 255·scale ≤ 255·66049 < 2^25 under the IsIntegral8 precondition
		if d < 0 {
			//lint:ignore intrange |d| < 2^25 under the IsIntegral8 precondition, so the negation cannot hit the int32 minimum
			d = -d
		}
		acc += int64(d)
	}
	return acc
}
