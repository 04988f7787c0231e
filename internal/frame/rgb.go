package frame

import (
	"fmt"

	"inframe/internal/fixed"
)

// RGB is a color frame with planar float32 storage in the nominal range
// [0, 255] per channel. The InFrame prototype adds the chessboard equally to
// R, G and B — i.e. purely to luma — so the core pipeline runs on the Y
// plane and this type carries the presentation path (color demos, Y4M
// export, colored video sources).
type RGB struct {
	W, H    int
	R, G, B []float32
}

// NewRGB returns a zeroed color frame.
func NewRGB(w, h int) *RGB {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("frame.NewRGB: invalid size %dx%d", w, h))
	}
	n := w * h
	return &RGB{W: w, H: h, R: make([]float32, n), G: make([]float32, n), B: make([]float32, n)}
}

// NewRGBFilled returns a color frame with every pixel set to (r, g, b).
func NewRGBFilled(w, h int, r, g, b float32) *RGB {
	f := NewRGB(w, h)
	for i := range f.R {
		f.R[i], f.G[i], f.B[i] = r, g, b
	}
	return f
}

// Clone returns a deep copy.
func (f *RGB) Clone() *RGB {
	g := NewRGB(f.W, f.H)
	copy(g.R, f.R)
	copy(g.G, f.G)
	copy(g.B, f.B)
	return g
}

// At returns the pixel at (x, y).
func (f *RGB) At(x, y int) (r, g, b float32) {
	i := y*f.W + x
	return f.R[i], f.G[i], f.B[i]
}

// Set assigns the pixel at (x, y).
func (f *RGB) Set(x, y int, r, g, b float32) {
	i := y*f.W + x
	f.R[i], f.G[i], f.B[i] = r, g, b
}

// Rec. 601 luma weights, matching the standard library's conversion and the
// Y'CbCr encoding used by Y4M.
const (
	lumaR = 0.299
	lumaG = 0.587
	lumaB = 0.114
)

// Luma extracts the Y plane (Rec. 601 weights).
func (f *RGB) Luma() *Frame {
	out := New(f.W, f.H)
	for i := range out.Pix {
		out.Pix[i] = float32(lumaR*f.R[i]) + float32(lumaG*f.G[i]) + float32(lumaB*f.B[i])
	}
	return out
}

// FromLuma lifts a grayscale frame into RGB (equal channels).
func FromLuma(y *Frame) *RGB {
	out := NewRGB(y.W, y.H)
	for i, v := range y.Pix {
		out.R[i], out.G[i], out.B[i] = v, v, v
	}
	return out
}

// YCbCr converts to Y'CbCr (BT.601 full range: Cb, Cr centered on 128).
func (f *RGB) YCbCr() (y, cb, cr *Frame) {
	y = New(f.W, f.H)
	cb = New(f.W, f.H)
	cr = New(f.W, f.H)
	for i := range y.Pix {
		r, g, b := float64(f.R[i]), float64(f.G[i]), float64(f.B[i])
		yy := float64(lumaR*r) + float64(lumaG*g) + float64(lumaB*b)
		y.Pix[i] = float32(yy)
		cb.Pix[i] = float32(128 + (b-yy)/1.772)
		cr.Pix[i] = float32(128 + (r-yy)/1.402)
	}
	return y, cb, cr
}

// RGBFromYCbCr converts BT.601 full-range planes back to RGB, clamped.
func RGBFromYCbCr(y, cb, cr *Frame) (*RGB, error) {
	if !y.SameSize(cb) || !y.SameSize(cr) {
		return nil, ErrSizeMismatch
	}
	out := NewRGB(y.W, y.H)
	for i := range y.Pix {
		yy := float64(y.Pix[i])
		cbv := float64(cb.Pix[i]) - 128
		crv := float64(cr.Pix[i]) - 128
		r := yy + float64(1.402*crv)
		b := yy + float64(1.772*cbv)
		g := (yy - float64(lumaR*r) - float64(lumaB*b)) / lumaG
		out.R[i] = float32(clamp255(r))
		out.G[i] = float32(clamp255(g))
		out.B[i] = float32(clamp255(b))
	}
	return out, nil
}

func clamp255(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return v
}

// Quant8 rounds v to the nearest integer and saturates to [0,255]. It is
// the blessed float→uint8 clamp helper (enforced by the clamp analyzer):
// every conversion from the float pixel domain to 8-bit storage must
// saturate here rather than wrap. The rounding runs through the int32
// fixed-point kernel, which is proven bit-identical to the former
// math.Round path (see fixed.Round8).
func Quant8(v float32) uint8 {
	return fixed.Round8(v)
}
