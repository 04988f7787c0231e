package frame

import (
	"errors"
	"fmt"
	"math"

	"inframe/internal/fixed"
)

// Homography is a 3×3 projective map between two pixel coordinate systems,
// stored row-major: a point (x, y) maps to
//
//	( (M0·x + M1·y + M2) / w, (M3·x + M4·y + M5) / w ),  w = M6·x + M7·y + M8.
//
// It generalizes CaptureMapping (internal/core) from axis-aligned affine to
// full perspective: the display→capture geometry of an off-axis camera
// (tilt, rotation, distance) is exactly a homography between the two planes.
// The type lives here, in the lowest shared layer, because the impair stack,
// the registration package and the receiver all consume it.
type Homography struct {
	M [9]float64
}

// ErrDegenerateQuad is returned by SolveHomography when the four source or
// destination corners are collinear, coincident, non-finite or otherwise do
// not span a proper quadrilateral.
var ErrDegenerateQuad = errors.New("frame: degenerate quad (collinear, coincident or non-finite corners)")

// ErrSingularHomography is returned by Invert when the matrix has no usable
// inverse.
var ErrSingularHomography = errors.New("frame: singular homography")

// IdentityHomography returns the identity map.
func IdentityHomography() Homography {
	return Homography{M: [9]float64{1, 0, 0, 0, 1, 0, 0, 0, 1}}
}

// AxisAlignedHomography lifts an axis-aligned affine map (the CaptureMapping
// form: x·sx+ox, y·sy+oy) into homography form.
func AxisAlignedHomography(sx, sy, ox, oy float64) Homography {
	return Homography{M: [9]float64{sx, 0, ox, 0, sy, oy, 0, 0, 1}}
}

// Apply maps one point. ok is false when the point sits on (or numerically
// at) the map's horizon line, where the projective denominator vanishes.
func (h Homography) Apply(x, y float64) (fx, fy float64, ok bool) {
	w := h.M[6]*x + h.M[7]*y + h.M[8]
	if !(math.Abs(w) > 1e-12) { // NaN-safe: a non-finite w also fails
		return 0, 0, false
	}
	inv := 1 / w
	return (h.M[0]*x + h.M[1]*y + h.M[2]) * inv, (h.M[3]*x + h.M[4]*y + h.M[5]) * inv, true
}

// Mul returns the composition h∘g as a map: (h.Mul(g)).Apply(p) equals
// h.Apply(g.Apply(p)) up to the shared projective scale.
func (h Homography) Mul(g Homography) Homography {
	var out Homography
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			out.M[3*r+c] = h.M[3*r]*g.M[c] + h.M[3*r+1]*g.M[3+c] + h.M[3*r+2]*g.M[6+c]
		}
	}
	return out
}

// Det returns the matrix determinant.
func (h Homography) Det() float64 {
	m := &h.M
	return m[0]*(m[4]*m[8]-m[5]*m[7]) -
		m[1]*(m[3]*m[8]-m[5]*m[6]) +
		m[2]*(m[3]*m[7]-m[4]*m[6])
}

// Invert returns the inverse map (the adjugate over the determinant), or
// ErrSingularHomography when the determinant is numerically zero relative to
// the matrix scale.
func (h Homography) Invert() (Homography, error) {
	m := &h.M
	det := h.Det()
	var norm float64
	for _, v := range m {
		norm += v * v
	}
	// The determinant scales with the cube of the matrix magnitude; compare
	// against norm^1.5 so the test is invariant to the projective scale.
	if !(math.Abs(det) > 1e-12*math.Pow(norm, 1.5)+1e-300) {
		return Homography{}, ErrSingularHomography
	}
	inv := 1 / det
	return Homography{M: [9]float64{
		(m[4]*m[8] - m[5]*m[7]) * inv,
		(m[2]*m[7] - m[1]*m[8]) * inv,
		(m[1]*m[5] - m[2]*m[4]) * inv,
		(m[5]*m[6] - m[3]*m[8]) * inv,
		(m[0]*m[8] - m[2]*m[6]) * inv,
		(m[2]*m[3] - m[0]*m[5]) * inv,
		(m[3]*m[7] - m[4]*m[6]) * inv,
		(m[1]*m[6] - m[0]*m[7]) * inv,
		(m[0]*m[4] - m[1]*m[3]) * inv,
	}}, nil
}

// AxisAligned reports whether h is an axis-aligned affine map — no rotation,
// shear or perspective terms — and returns its CaptureMapping parameters.
// The test is exact on the off-diagonal terms: the receiver uses it to route
// frontal poses through the pre-homography decode path bit-identically, so a
// "nearly zero" tolerance would silently resample clean captures.
func (h Homography) AxisAligned() (sx, sy, ox, oy float64, ok bool) {
	//lint:ignore floateq the frontal fast path must trigger only on exactly-affine maps; approximate zeros must take the warp path
	if h.M[1] != 0 || h.M[3] != 0 || h.M[6] != 0 || h.M[7] != 0 {
		return 0, 0, 0, 0, false
	}
	w := h.M[8]
	if !(math.Abs(w) > 0) {
		return 0, 0, 0, 0, false
	}
	inv := 1 / w
	sx, sy = h.M[0]*inv, h.M[4]*inv
	ox, oy = h.M[2]*inv, h.M[5]*inv
	if !(sx > 0) || !(sy > 0) || math.IsInf(sx, 0) || math.IsInf(sy, 0) {
		return 0, 0, 0, 0, false
	}
	return sx, sy, ox, oy, true
}

// Validate reports whether h is a usable (finite, invertible) map.
func (h Homography) Validate() error {
	finite := true
	for _, v := range h.M {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			finite = false
		}
	}
	if !finite {
		return fmt.Errorf("frame: homography has non-finite entries: %v", h.M)
	}
	if _, err := h.Invert(); err != nil {
		return err
	}
	return nil
}

// SolveHomography computes the homography mapping src[i] → dst[i] for four
// point correspondences by the normalized direct linear transform: both
// point sets are Hartley-normalized (centroid at the origin, mean distance
// √2), the resulting 8×8 linear system is solved by Gaussian elimination
// with partial pivoting — fixed work, no data-dependent iteration — and the
// similarity transforms are folded back in. Collinear, coincident or
// non-finite corners return ErrDegenerateQuad.
func SolveHomography(src, dst [4][2]float64) (Homography, error) {
	tsrc, nsrc, err := hartleyNormalize(src)
	if err != nil {
		return Homography{}, err
	}
	tdst, ndst, err := hartleyNormalize(dst)
	if err != nil {
		return Homography{}, err
	}
	// Build the 8×8 DLT system A·h = b on the normalized points, with the
	// normalized homography's last entry fixed at 1:
	//   u·w = h0·x + h1·y + h2,  v·w = h3·x + h4·y + h5,  w = h6·x + h7·y + 1.
	var a [8][9]float64 // augmented: a[r][8] is the right-hand side
	for i := 0; i < 4; i++ {
		x, y := nsrc[i][0], nsrc[i][1]
		u, v := ndst[i][0], ndst[i][1]
		a[2*i] = [9]float64{x, y, 1, 0, 0, 0, -u * x, -u * y, u}
		a[2*i+1] = [9]float64{0, 0, 0, x, y, 1, -v * x, -v * y, v}
	}
	h8, err := solve8(&a)
	if err != nil {
		return Homography{}, err
	}
	hn := Homography{M: [9]float64{h8[0], h8[1], h8[2], h8[3], h8[4], h8[5], h8[6], h8[7], 1}}
	// Denormalize: H = T_dst⁻¹ · Hn · T_src. The inverse of a similarity
	// [s,0,-s·cx; 0,s,-s·cy; 0,0,1] is [1/s,0,cx; 0,1/s,cy; 0,0,1].
	out := tdst.inverse().hom().Mul(hn).Mul(tsrc.hom())
	if err := out.Validate(); err != nil {
		// A numerically near-degenerate quad can slip past the pivot check;
		// the result is still unusable, so it reports the same typed error.
		return Homography{}, ErrDegenerateQuad
	}
	return out, nil
}

// similarity is the Hartley normalizing transform x' = s·(x − c).
type similarity struct {
	s      float64
	cx, cy float64
}

func (t similarity) hom() Homography {
	return Homography{M: [9]float64{t.s, 0, -t.s * t.cx, 0, t.s, -t.s * t.cy, 0, 0, 1}}
}

func (t similarity) inverse() similarity {
	return similarity{s: 1 / t.s, cx: -t.cx * t.s, cy: -t.cy * t.s}
}

// hartleyNormalize returns the similarity moving the point set's centroid to
// the origin and its mean distance to √2, plus the transformed points.
func hartleyNormalize(pts [4][2]float64) (similarity, [4][2]float64, error) {
	var cx, cy float64
	for _, p := range pts {
		if math.IsNaN(p[0]) || math.IsInf(p[0], 0) || math.IsNaN(p[1]) || math.IsInf(p[1], 0) {
			return similarity{}, [4][2]float64{}, ErrDegenerateQuad
		}
		cx += p[0]
		cy += p[1]
	}
	cx /= 4
	cy /= 4
	var md float64
	for _, p := range pts {
		dx := p[0] - cx
		dy := p[1] - cy
		// Plain Sqrt, not Hypot: corner coordinates are pixel-scale, far
		// from the overflow regime Hypot exists to handle.
		md += math.Sqrt(dx*dx + dy*dy)
	}
	md /= 4
	if !(md > 1e-9) {
		return similarity{}, [4][2]float64{}, ErrDegenerateQuad
	}
	t := similarity{s: math.Sqrt2 / md, cx: cx, cy: cy}
	var out [4][2]float64
	for i, p := range pts {
		out[i][0] = t.s * (p[0] - cx)
		out[i][1] = t.s * (p[1] - cy)
	}
	return t, out, nil
}

// solve8 solves the augmented 8×9 system in place by Gaussian elimination
// with partial pivoting. A pivot below tolerance means the correspondences
// do not determine a homography (collinear or coincident corners).
func solve8(a *[8][9]float64) ([8]float64, error) {
	var x [8]float64
	for col := 0; col < 8; col++ {
		pivot := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < 8; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best = v
				pivot = r
			}
		}
		if !(best > 1e-10) {
			return x, ErrDegenerateQuad
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < 8; r++ {
			f := a[r][col] * inv
			for c := col; c < 9; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	for r := 7; r >= 0; r-- {
		v := a[r][8]
		for c := r + 1; c < 8; c++ {
			v -= a[r][c] * x[c]
		}
		x[r] = v / a[r][r]
	}
	return x, nil
}

// WarpInto inverse-warps src into dst through h: every destination pixel
// (x, y) is bilinearly sampled from src at h.Apply(x, y), so h maps
// destination coordinates into source coordinates. Samples falling outside
// src (or on the map's horizon line) read 0 — the black overscan a camera
// sees past the screen edge. dst must not alias src; sizes may differ.
//
// Integral 8-bit sources (quantized captures, the common case) route through
// the exact integer Q16 bilinear kernel (fixed.BilinearQ16); non-integral
// sources take the float taps. Either way the arithmetic depends only on
// (src, dst geometry, h), never on worker identity, so warped pipelines stay
// bit-identical at any worker count. A map applied to many frames of one
// size is cheaper through a WarpPlan, which gives the same bits.
func WarpInto(src, dst *Frame, h Homography) {
	if src == dst || &src.Pix[0] == &dst.Pix[0] {
		panic("frame.WarpInto: dst aliases src")
	}
	if fixed.IsIntegral8(src.Pix) {
		warpIntegral(src, dst, h)
		return
	}
	warpFloat(src, dst, h)
}

// Warp is the allocating convenience form of WarpInto at src's size.
func Warp(src *Frame, h Homography) *Frame {
	dst := New(src.W, src.H)
	WarpInto(src, dst, h)
	return dst
}

func warpFloat(src, dst *Frame, h Homography) {
	m0, m1, m2 := h.M[0], h.M[1], h.M[2]
	m3, m4, m5 := h.M[3], h.M[4], h.M[5]
	m6, m7, m8 := h.M[6], h.M[7], h.M[8]
	maxX := float64(src.W - 1)
	maxY := float64(src.H - 1)
	for y := 0; y < dst.H; y++ {
		fy := float64(y)
		nx0 := m1*fy + m2
		ny0 := m4*fy + m5
		d0 := m7*fy + m8
		orow := dst.Pix[y*dst.W : (y+1)*dst.W]
		for x := 0; x < dst.W; x++ {
			fx := float64(x)
			d := m6*fx + d0
			if !(math.Abs(d) > 1e-12) {
				orow[x] = 0
				continue
			}
			inv := 1 / d
			sx := (m0*fx + nx0) * inv
			sy := (m3*fx + ny0) * inv
			// The guard is NaN-safe: a non-finite sample coordinate fails
			// both comparisons and reads the black overscan.
			if !(sx >= 0 && sx <= maxX && sy >= 0 && sy <= maxY) {
				orow[x] = 0
				continue
			}
			x0 := int(sx)
			y0 := int(sy)
			x1 := x0 + 1
			if x1 > src.W-1 {
				x1 = src.W - 1
			}
			y1 := y0 + 1
			if y1 > src.H-1 {
				y1 = src.H - 1
			}
			wx := float32(sx - float64(x0))
			wy := float32(sy - float64(y0))
			row0 := src.Pix[y0*src.W:]
			row1 := src.Pix[y1*src.W:]
			top := row0[x0] + (row0[x1]-row0[x0])*wx
			bot := row1[x0] + (row1[x1]-row1[x0])*wx
			orow[x] = top + (bot-top)*wy
		}
	}
}

// warpIntegral is the integer-tap path: source pixels are exact int32 in
// [0, 255] (the IsIntegral8 precondition), the bilinear weights are Q16, and
// the interpolation runs in fixed.BilinearQ16's exact integer arithmetic.
// Each destination row is computed and gathered a chunk of taps at a time,
// through the same rowTaps and gatherQ16 a WarpPlan is built and applied
// with, so a plan reproduces this path bit for bit.
func warpIntegral(src, dst *Frame, h Homography) {
	checkTapIndex(src.W, src.H)
	var taps [tapChunk]warpTap
	for y := 0; y < dst.H; y++ {
		orow := dst.Pix[y*dst.W : (y+1)*dst.W]
		for x := 0; x < dst.W; x += tapChunk {
			n := min(tapChunk, dst.W-x)
			rowTaps(taps[:n], &h, x, y, src.W, src.H)
			gatherQ16(orow[x:x+n], src.Pix, src.W, taps[:n])
		}
	}
}

// warpTap is one destination pixel's integer-path bilinear tap: the flat
// index y0·W + x0 of its top-left source pixel, −1 for the black overscan,
// and the Q16 weights of the pixel to its right (wx) and of the row below
// (wy). A weight is the fractional sample coordinate times 2¹⁶, truncated,
// so it lies in [0, 65535] and an 8-byte tap holds all three.
type warpTap struct {
	idx    int32
	wx, wy uint16
}

// tapChunk is how many taps warpIntegral computes before gathering them:
// a few KB of stack scratch that stays in L1 between the two loops.
const tapChunk = 256

// checkTapIndex panics when a srcW×srcH source has more pixels than a
// warpTap's int32 index can address.
func checkTapIndex(srcW, srcH int) {
	if int64(srcW)*int64(srcH) > math.MaxInt32 {
		panic(fmt.Sprintf("frame: warp source %dx%d exceeds the tap index range", srcW, srcH))
	}
}

// rowTaps computes the integer-path taps of destination pixels
// (col+i, y), i < len(taps), under h for a srcW×srcH source. It is the one
// definition of a projective Q16 tap: per row m1·y+m2, m4·y+m5 and m7·y+m8;
// per pixel d = m6·x+d0, inv = 1/d, sx = (m0·x+nx0)·inv and
// sy = (m3·x+ny0)·inv. A sample on the horizon line (|d| ≤ 1e-12) or
// outside the source reads the black overscan; the guard is NaN-safe, so a
// non-finite coordinate fails it too.
func rowTaps(taps []warpTap, h *Homography, col, y, srcW, srcH int) {
	m0, m1, m2 := h.M[0], h.M[1], h.M[2]
	m3, m4, m5 := h.M[3], h.M[4], h.M[5]
	m6, m7, m8 := h.M[6], h.M[7], h.M[8]
	maxX := float64(srcW - 1)
	maxY := float64(srcH - 1)
	const qOne = 1 << 16
	fy := float64(y)
	nx0 := m1*fy + m2
	ny0 := m4*fy + m5
	d0 := m7*fy + m8
	for i := range taps {
		fx := float64(col + i)
		d := m6*fx + d0
		if !(math.Abs(d) > 1e-12) {
			taps[i] = warpTap{idx: -1}
			continue
		}
		inv := 1 / d
		sx := (m0*fx + nx0) * inv
		sy := (m3*fx + ny0) * inv
		if !(sx >= 0 && sx <= maxX && sy >= 0 && sy <= maxY) {
			taps[i] = warpTap{idx: -1}
			continue
		}
		x0 := int(sx)
		y0 := int(sy)
		taps[i] = warpTap{
			idx: int32(y0*srcW + x0), //lint:ignore intrange y0·srcW + x0 < srcW·srcH ≤ MaxInt32, which checkTapIndex asserts before any tap is built
			// x0 and y0 truncate non-negative coordinates, so sx − x0 and
			// sy − y0 are exact fractional parts in [0, 1), and each
			// weight truncates into [0, 65535].
			wx: uint16((sx - float64(x0)) * qOne), //lint:ignore intrange a fraction in [0, 1) times 2^16, truncated, lies in [0, 65535]
			wy: uint16((sy - float64(y0)) * qOne),
		}
	}
}

// gatherQ16 writes each tap's Q16 bilinear sample of the integral w-wide
// plane pix to out, 0 for an overscan tap. The sample at the right (below)
// is read only under a non-zero wx (wy): a zero weight multiplies that
// sample's difference by 0, so skipping it leaves the result unchanged, and
// it is exactly the case where the tap sits on the last column (row) and
// the per-pixel warp clamped x1 (y1) back onto x0 (y0) — a sample there
// lies on the edge, so its fractional part and weight are 0.
func gatherQ16(out, pix []float32, w int, taps []warpTap) {
	const qOne = 1 << 16
	for i, t := range taps {
		if t.idx < 0 {
			out[i] = 0
			continue
		}
		j := int(t.idx)
		wx, wy := int32(t.wx), int32(t.wy)
		dx, dy := 0, 0
		if wx != 0 {
			dx = 1
		}
		if wy != 0 {
			dy = w
		}
		//lint:ignore intrange pix is integral in [0, 255] (the IsIntegral8 precondition of every caller), so each tap converts exactly
		v00, v01, v10, v11 := int32(pix[j]), int32(pix[j+dx]), int32(pix[j+dy]), int32(pix[j+dy+dx])
		q := fixed.BilinearQ16(v00, v01, v10, v11, wx, wy)
		out[i] = float32(q) * (1.0 / qOne)
	}
}

// WarpPlan is one homography's inverse warp precomputed for fixed source
// and destination sizes: every destination pixel's integer-path tap, built
// by the same rowTaps WarpInto's integer path evaluates per call. Into then
// gathers a capture through the stored taps and skips the per-pixel
// projective divide, so a warp reused on every capture — the camera-pose
// impairment, the projective receiver's rectification — pays for its
// geometry once. A plan stores 8 bytes per destination pixel (7.4 MB at
// 1280×720) and is never modified after NewWarpPlan returns, so any number
// of goroutines may call Into on one plan concurrently.
type WarpPlan struct {
	h          Homography
	srcW, srcH int
	dstW, dstH int
	taps       []warpTap // dstW·dstH, row-major
}

// NewWarpPlan precomputes the inverse warp through h from a srcW×srcH
// source into a dstW×dstH destination (h maps destination coordinates into
// source coordinates, as in WarpInto). It panics on a non-positive size
// and on a source too large for the plan's int32 tap index.
func NewWarpPlan(h Homography, srcW, srcH, dstW, dstH int) *WarpPlan {
	if srcW <= 0 || srcH <= 0 || dstW <= 0 || dstH <= 0 {
		panic(fmt.Sprintf("frame.NewWarpPlan: invalid size %dx%d -> %dx%d", srcW, srcH, dstW, dstH))
	}
	checkTapIndex(srcW, srcH)
	p := &WarpPlan{h: h, srcW: srcW, srcH: srcH, dstW: dstW, dstH: dstH,
		taps: make([]warpTap, dstW*dstH)}
	for y := 0; y < dstH; y++ {
		rowTaps(p.taps[y*dstW:(y+1)*dstW], &h, 0, y, srcW, srcH)
	}
	return p
}

// Homography returns the map the plan was built for.
func (p *WarpPlan) Homography() Homography { return p.h }

// Fits reports whether the plan warps a srcW×srcH source into a dstW×dstH
// destination.
func (p *WarpPlan) Fits(srcW, srcH, dstW, dstH int) bool {
	return p.srcW == srcW && p.srcH == srcH && p.dstW == dstW && p.dstH == dstH
}

// Into is WarpInto(src, dst, p.Homography()) with the taps precomputed, bit
// for bit: an integral 8-bit source (the same IsIntegral8 scan) gathers
// the stored taps through fixed.BilinearQ16, any other source takes the
// float path through the plan's homography. It panics when src or dst is
// not the plan's size and when dst aliases src.
func (p *WarpPlan) Into(src, dst *Frame) {
	if !p.Fits(src.W, src.H, dst.W, dst.H) {
		panic(fmt.Sprintf("frame.WarpPlan.Into: %dx%d -> %dx%d, plan is %dx%d -> %dx%d",
			src.W, src.H, dst.W, dst.H, p.srcW, p.srcH, p.dstW, p.dstH))
	}
	if src == dst || &src.Pix[0] == &dst.Pix[0] {
		panic("frame.WarpPlan.Into: dst aliases src")
	}
	if fixed.IsIntegral8(src.Pix) {
		gatherQ16(dst.Pix, src.Pix, src.W, p.taps)
		return
	}
	warpFloat(src, dst, p.h)
}
