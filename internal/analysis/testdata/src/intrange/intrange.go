// Package intrange is the fixture for the intrange analyzer: integer
// narrowing and accumulation in hot code must provably stay inside the
// target type. Functions enter the analyzer's scope by clamp/quant
// naming, a //hot directive, or a //range contract; everything else in
// the package is ignored.
package intrange

import "math"

// clampU8 is the canonical guarded narrowing: both branch refinements
// reach the conversion, so [0, 255] is proven and nothing is reported.
func clampU8(v int) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// quantRound is the production rounding idiom: math.Round yields an
// unknown float, the two guards pin it to [0, 255], and the float→int
// truncation of q + 0 keeps the conversion exact.
func quantRound(v float64) byte {
	q := math.Round(v * 255)
	if q < 0 {
		return 0
	}
	if q > 255 {
		return 255
	}
	return byte(q)
}

// clampHalf misses the upper guard: the operand range is [0, +inf] at
// the conversion, which does not fit uint8.
func clampHalf(v int) uint8 {
	if v < 0 {
		return 0
	}
	return uint8(v) // want "cannot prove this conversion to uint8"
}

// sumBytes is the seeded overflow: a byte-wide accumulator over an
// unbounded slice wraps after at most 256 summed units.
//
//hot:seeded overflow
func sumBytes(p []uint8) uint8 {
	var s uint8
	for _, b := range p {
		s += b // want "cannot prove value stored into uint8"
	}
	return s
}

// countBytes accumulates into a 64-bit int and stays silent: the
// widened range cannot leave int64, and 64-bit targets only report
// definite overflow.
//
//hot:64-bit accumulator
func countBytes(p []uint8) int {
	n := 0
	for _, b := range p {
		if b > 0 {
			n++
		}
	}
	return n
}

// sumCounted's counted loop bounds the trip count, so even the widened
// sum is provably small.
//
//hot:counted accumulator
func sumCounted(p []uint8) int {
	s := 0
	for i := 0; i < 1024; i++ {
		s += int(p[i&1023])
	}
	return s
}

// blendQ16 blends two Q16 samples by a Q16 weight and brings the Q32 sum
// back by a constant shift: the shift divides the non-negative sum's whole
// range by 2^16, so the narrowing is proven.
//
//range:a 0,16711680
//range:b 0,16711680
//range:w 0,65536
func blendQ16(a, b, w int64) int32 {
	return int32((a*(65536-w) + b*w) >> 16)
}

// shiftSigned shifts an operand that may be negative, where a right shift
// floors away from the interval the analyzer can bound.
//
//hot:signed shift
func shiftSigned(a, b uint8) int32 {
	return int32((int64(a) - int64(b)) << 40 >> 16) // want "cannot prove this conversion to int32"
}

// shiftTooLittle shifts by less than the narrowing needs.
//
//hot:short shift
func shiftTooLittle(a uint8) int32 {
	return int32(int64(a) << 40 >> 8) // want "cannot prove this conversion to int32"
}

// scaled carries a //range contract: the parameter is seeded [0, 255],
// and every caller must prove its argument stays inside it.
//
//range:v 0,255
func scaled(v int) int {
	return v * 257
}

// callScaled: the guarded call proves the contract; the unguarded one
// cannot.
//
//hot:contract call sites
func callScaled(x int) int {
	if x >= 0 && x <= 255 {
		return scaled(x)
	}
	return scaled(x) // want "cannot prove argument stays in //range"
}

// badDirectives exercises the directive diagnostics, one per line.
//
//range:v // want "malformed //range directive"
//range:w 0,1 // want "names no parameter"
//range:v 5,1 // want "contract on v is empty"
func badDirectives(v int) int {
	return v
}

// checksum wraps by design, so the finding is acknowledged in place.
//
//hot:sanctioned wraparound
func checksum(p []uint8) uint8 {
	var s uint8
	for _, b := range p {
		//lint:ignore intrange modular wraparound is the checksum definition
		s += b
	}
	return s
}

// shiftDivide exercises the shift-vs-divide rule: a signed division by a
// power-of-two constant inside a loop whose operand the interval engine
// proves non-negative compiles to a shift-plus-fixup the code could spell
// as a plain shift.
//
//hot:shift-vs-divide fixture
func shiftDivide(n int, hist []int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i / 4 // want "signed division by 4 in a loop with a provably non-negative operand"
	}
	for i := -n; i < n; i++ {
		s += i / 4 // operand may be negative: the rounding fixup is load-bearing
	}
	for i := 0; i < n; i++ {
		s += i / 3 // not a power of two: the compiler's magic-multiply is fine
	}
	for i := uint(0); i < 64; i++ {
		s += int(i / 8) // unsigned operand already compiles to a shift
	}
	half := n / 2 // outside any loop: a one-off divide is not worth a diagnostic
	return s + half
}

// notHotNarrow carries no //hot directive, no clamp/quant name and no
// contract, and the fixture package is off the hot list, so its unguarded
// narrowing is out of scope here. Loaded under a built-in hot import path
// (see TestHotPathActivation) the same code is flagged.
func notHotNarrow(v int) uint8 {
	return uint8(v)
}
