// Package frame provides the grayscale frame type shared by every stage of
// the InFrame pipeline: video generation, multiplexing, display simulation,
// camera capture and decoding.
//
// Frames store luminance as float32 in the nominal range [0, 255]. Keeping
// the pipeline in float avoids accumulating quantization error across the
// encode → display → integrate → capture chain; values are clamped and
// quantized only where the physical system does (the display's drive value
// and the camera's ADC).
//
// Every float multiply feeding an add is written float64(x*y) + z (or
// float32(x*y) + z): Go may fuse x*y + z into one fused multiply-add that
// rounds once (arm64 does, amd64 never), and the explicit conversion
// forbids it, so the resampler, the warps and the homography arithmetic
// give the same bits on every architecture. verify.sh's arm64 stage fails
// on any fused instruction in this package.
package frame

import (
	"errors"
	"fmt"
	"math"

	"inframe/internal/fixed"
)

// Frame is a single grayscale image plane. Pixels are stored row-major:
// pixel (x, y) lives at Pix[y*W+x]. The zero value is not usable; construct
// frames with New or NewFilled.
type Frame struct {
	W, H int
	Pix  []float32
}

// ErrSizeMismatch is returned by binary frame operations whose operands have
// different dimensions.
var ErrSizeMismatch = errors.New("frame: size mismatch")

// New returns a zeroed (black) frame of the given dimensions.
// It panics if either dimension is non-positive.
func New(w, h int) *Frame {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("frame.New: invalid size %dx%d", w, h))
	}
	return &Frame{W: w, H: h, Pix: make([]float32, w*h)}
}

// NewFilled returns a frame of the given dimensions with every pixel set to v.
func NewFilled(w, h int, v float32) *Frame {
	f := New(w, h)
	fillPix(f.Pix, v)
	return f
}

// fillPix sets every element of p to v. This is the single full-plane fill
// loop shared by Fill, NewFilled and Pool.Get's zeroing path: zero fills
// (by far the common case — every pooled Get zeroes) compile to a memclr,
// and non-zero fills use a doubling copy instead of a scalar store loop.
// The zero test is on the bit pattern, not the value: -0 must take the
// copy path, because memclr would silently rewrite it to +0 and break the
// pool's bit-identity guarantee.
func fillPix(p []float32, v float32) {
	if math.Float32bits(v) == 0 {
		clear(p)
		return
	}
	if len(p) == 0 {
		return
	}
	p[0] = v
	for i := 1; i < len(p); i <<= 1 {
		copy(p[i:], p[:i])
	}
}

// Clone returns a deep copy of f.
func (f *Frame) Clone() *Frame {
	g := &Frame{W: f.W, H: f.H, Pix: make([]float32, len(f.Pix))}
	copy(g.Pix, f.Pix)
	return g
}

// CloneInto copies f's pixels into dst, the allocation-free counterpart of
// Clone for pooled buffers. It panics on a size mismatch: unlike the
// error-returning arithmetic ops, Into variants are wired by the pipeline
// itself, so a mismatch is a plumbing bug, not an input condition.
func (f *Frame) CloneInto(dst *Frame) {
	if !f.SameSize(dst) {
		panic(fmt.Sprintf("frame.CloneInto: %dx%d into %dx%d", f.W, f.H, dst.W, dst.H))
	}
	copy(dst.Pix, f.Pix)
}

// Row returns the y'th pixel row as a shared view into f's buffer. Writing
// through the view writes the frame; the view is only valid while the
// caller's borrow of f lasts.
func (f *Frame) Row(y int) []float32 {
	return f.Pix[y*f.W : (y+1)*f.W]
}

// At returns the pixel value at (x, y). It panics if the coordinates are out
// of bounds, matching slice semantics.
func (f *Frame) At(x, y int) float32 { return f.Pix[y*f.W+x] }

// Set assigns the pixel value at (x, y).
func (f *Frame) Set(x, y int, v float32) { f.Pix[y*f.W+x] = v }

// SameSize reports whether f and g have identical dimensions.
func (f *Frame) SameSize(g *Frame) bool { return f.W == g.W && f.H == g.H }

// Fill sets every pixel to v.
func (f *Frame) Fill(v float32) { fillPix(f.Pix, v) }

// Add computes f += g in place.
func (f *Frame) Add(g *Frame) error {
	if !f.SameSize(g) {
		return ErrSizeMismatch
	}
	for i, v := range g.Pix {
		f.Pix[i] += v
	}
	return nil
}

// Sub computes f -= g in place.
func (f *Frame) Sub(g *Frame) error {
	if !f.SameSize(g) {
		return ErrSizeMismatch
	}
	for i, v := range g.Pix {
		f.Pix[i] -= v
	}
	return nil
}

// AddScaled computes f += k*g in place.
func (f *Frame) AddScaled(g *Frame, k float32) error {
	if !f.SameSize(g) {
		return ErrSizeMismatch
	}
	for i, v := range g.Pix {
		f.Pix[i] += float32(k * v)
	}
	return nil
}

// SubInto computes dst = a - b without allocating. All three frames must
// share one size; a mismatch panics (a pipeline wiring bug, see CloneInto).
// dst may alias a or b.
func SubInto(dst, a, b *Frame) {
	if !dst.SameSize(a) || !dst.SameSize(b) {
		panic(fmt.Sprintf("frame.SubInto: %dx%d = %dx%d - %dx%d", dst.W, dst.H, a.W, a.H, b.W, b.H))
	}
	for i, v := range a.Pix {
		dst.Pix[i] = v - b.Pix[i]
	}
}

// AddScaledInto computes dst = a + k*b without allocating. All three frames
// must share one size; a mismatch panics. dst may alias a or b.
func AddScaledInto(dst, a, b *Frame, k float32) {
	if !dst.SameSize(a) || !dst.SameSize(b) {
		panic(fmt.Sprintf("frame.AddScaledInto: %dx%d = %dx%d + k*%dx%d", dst.W, dst.H, a.W, a.H, b.W, b.H))
	}
	for i, v := range a.Pix {
		dst.Pix[i] = v + k*b.Pix[i]
	}
}

// Scale multiplies every pixel by k.
func (f *Frame) Scale(k float32) {
	for i := range f.Pix {
		f.Pix[i] *= k
	}
}

// Clamp limits every pixel to [lo, hi].
func (f *Frame) Clamp(lo, hi float32) {
	for i, v := range f.Pix {
		if v < lo {
			f.Pix[i] = lo
		} else if v > hi {
			f.Pix[i] = hi
		}
	}
}

// Quantize rounds every pixel to the nearest integer and clamps to [0, 255],
// modelling an 8-bit pixel value while keeping float storage.
func (f *Frame) Quantize() {
	for i, v := range f.Pix {
		f.Pix[i] = float32(fixed.Round8(v))
	}
}

// Mean returns the average pixel value.
func (f *Frame) Mean() float64 {
	var s float64
	for _, v := range f.Pix {
		s += float64(v)
	}
	return s / float64(len(f.Pix))
}

// MinMax returns the smallest and largest pixel values.
func (f *Frame) MinMax() (min, max float32) {
	min, max = f.Pix[0], f.Pix[0]
	for _, v := range f.Pix[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// Complement returns the complementary frame of f with respect to luminance
// level v: every output pixel o satisfies o + p = 2v (§3.2 of the paper).
func (f *Frame) Complement(v float32) *Frame {
	g := New(f.W, f.H)
	f.ComplementInto(g, v)
	return g
}

// ComplementInto writes f's complement with respect to v into dst, which
// must match f's size (panics otherwise). dst may alias f.
func (f *Frame) ComplementInto(dst *Frame, v float32) {
	if !f.SameSize(dst) {
		panic(fmt.Sprintf("frame.ComplementInto: %dx%d into %dx%d", f.W, f.H, dst.W, dst.H))
	}
	for i, p := range f.Pix {
		dst.Pix[i] = 2*v - p
	}
}

// Region copies the rectangle with origin (x0, y0) and size w×h into a new
// frame. The rectangle is clipped to f's bounds; it panics if the clipped
// rectangle is empty.
func (f *Frame) Region(x0, y0, w, h int) *Frame {
	if x0 < 0 {
		w += x0
		x0 = 0
	}
	if y0 < 0 {
		h += y0
		y0 = 0
	}
	if x0+w > f.W {
		w = f.W - x0
	}
	if y0+h > f.H {
		h = f.H - y0
	}
	if w <= 0 || h <= 0 {
		panic("frame.Region: empty region")
	}
	g := New(w, h)
	for y := 0; y < h; y++ {
		copy(g.Pix[y*w:(y+1)*w], f.Pix[(y0+y)*f.W+x0:(y0+y)*f.W+x0+w])
	}
	return g
}

// RegionInto copies the dst.W×dst.H rectangle of f with origin (x0, y0)
// into dst. Unlike Region it does not clip: the rectangle must lie fully
// inside f (the pooled pipeline validates geometry at configuration time),
// and a violation panics through the row slice bounds.
func (f *Frame) RegionInto(dst *Frame, x0, y0 int) {
	w := dst.W
	for y := 0; y < dst.H; y++ {
		base := (y0+y)*f.W + x0
		copy(dst.Pix[y*w:(y+1)*w], f.Pix[base:base+w])
	}
}

// Blit copies src into f with its origin at (x0, y0), clipping to f's bounds.
// Blit is already an in-place operation (f is the destination); it is the
// "BlitInto" of the pooled API.
func (f *Frame) Blit(src *Frame, x0, y0 int) {
	// Clip the horizontal span once; each row is then a single copy.
	xlo, xhi := 0, src.W
	if x0 < 0 {
		xlo = -x0
	}
	if x0+xhi > f.W {
		xhi = f.W - x0
	}
	if xlo >= xhi {
		return
	}
	for y := 0; y < src.H; y++ {
		dy := y0 + y
		if dy < 0 || dy >= f.H {
			continue
		}
		dst := f.Pix[dy*f.W : (dy+1)*f.W]
		srow := src.Pix[y*src.W : (y+1)*src.W]
		copy(dst[x0+xlo:x0+xhi], srow[xlo:xhi])
	}
}

// Equal reports whether f and g are identical in size and pixel values.
func (f *Frame) Equal(g *Frame) bool {
	if !f.SameSize(g) {
		return false
	}
	for i, v := range f.Pix {
		//lint:ignore floateq Equal's contract is bit-identity (the worker-count invariance tests depend on it), so the comparison must be exact
		if g.Pix[i] != v {
			return false
		}
	}
	return true
}

// String summarizes the frame for debugging.
func (f *Frame) String() string {
	min, max := f.MinMax()
	return fmt.Sprintf("Frame(%dx%d mean=%.1f range=[%.1f,%.1f])", f.W, f.H, f.Mean(), min, max)
}
