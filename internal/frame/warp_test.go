package frame

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"inframe/internal/fixed"
)

// randQuad returns a seeded non-degenerate convex quad: a w×h rectangle
// whose corners are jittered by strictly less than a quarter of the short
// side, so each corner stays in its own quadrant and no three can turn
// collinear.
func randQuad(rng *rand.Rand, w, h float64) [4][2]float64 {
	j := 0.24 * math.Min(w, h)
	base := [4][2]float64{{0, 0}, {w, 0}, {w, h}, {0, h}}
	for i := range base {
		base[i][0] += (2*rng.Float64() - 1) * j
		base[i][1] += (2*rng.Float64() - 1) * j
	}
	return base
}

// randHomography returns a seeded well-conditioned ground-truth map: an
// axis-aligned core with mild rotation/shear and small perspective terms.
func randHomography(rng *rand.Rand) Homography {
	return Homography{M: [9]float64{
		0.5 + rng.Float64(), (rng.Float64() - 0.5) * 0.2, (rng.Float64() - 0.5) * 40,
		(rng.Float64() - 0.5) * 0.2, 0.5 + rng.Float64(), (rng.Float64() - 0.5) * 40,
		(rng.Float64() - 0.5) * 1e-3, (rng.Float64() - 0.5) * 1e-3, 1,
	}}
}

// TestSolveHomographyRoundTrip pins the property pack's core guarantee: for
// seeded random non-degenerate quads, projecting a rectangle's corners
// through a ground-truth map and solving from the four correspondences
// recovers the map — not just at the corners, but at a grid of interior and
// exterior probe points.
func TestSolveHomographyRoundTrip(t *testing.T) {
	src := [4][2]float64{{0, 0}, {112, 0}, {112, 72}, {0, 72}}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		want := randHomography(rng)
		var dst [4][2]float64
		for i, p := range src {
			x, y, ok := want.Apply(p[0], p[1])
			if !ok {
				t.Fatalf("seed %d: ground-truth map degenerate at corner %d", seed, i)
			}
			dst[i] = [2]float64{x, y}
		}
		got, err := SolveHomography(src, dst)
		if err != nil {
			t.Fatalf("seed %d: solve failed: %v", seed, err)
		}
		for px := -20.0; px <= 140; px += 20 {
			for py := -20.0; py <= 90; py += 15 {
				wx, wy, ok1 := want.Apply(px, py)
				gx, gy, ok2 := got.Apply(px, py)
				if !ok1 || !ok2 {
					t.Fatalf("seed %d: probe (%v,%v) hit a horizon", seed, px, py)
				}
				if math.Abs(wx-gx) > 1e-6 || math.Abs(wy-gy) > 1e-6 {
					t.Fatalf("seed %d: probe (%v,%v): got (%v,%v), want (%v,%v)",
						seed, px, py, gx, gy, wx, wy)
				}
			}
		}
	}
}

// TestSolveHomographyCorners checks the solve interpolates its defining
// correspondences for seeded random quads on both sides.
func TestSolveHomographyCorners(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		src := randQuad(rng, 112, 72)
		dst := randQuad(rng, 160, 90)
		h, err := SolveHomography(src, dst)
		if err != nil {
			t.Fatalf("seed %d: solve failed: %v", seed, err)
		}
		for i := range src {
			x, y, ok := h.Apply(src[i][0], src[i][1])
			if !ok {
				t.Fatalf("seed %d: corner %d on horizon", seed, i)
			}
			if math.Abs(x-dst[i][0]) > 1e-6 || math.Abs(y-dst[i][1]) > 1e-6 {
				t.Fatalf("seed %d: corner %d maps to (%v,%v), want (%v,%v)",
					seed, i, x, y, dst[i][0], dst[i][1])
			}
		}
	}
}

// TestHomographyInvertComposition: H·H⁻¹ ≈ I for seeded random maps, up to
// the shared projective scale.
func TestHomographyInvertComposition(t *testing.T) {
	id := IdentityHomography()
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		h := randHomography(rng)
		inv, err := h.Invert()
		if err != nil {
			t.Fatalf("seed %d: invert failed: %v", seed, err)
		}
		prod := h.Mul(inv)
		s := prod.M[8]
		if math.Abs(s) < 1e-12 {
			t.Fatalf("seed %d: product has vanishing scale", seed)
		}
		for i, v := range prod.M {
			if math.Abs(v/s-id.M[i]) > 1e-9 {
				t.Fatalf("seed %d: (H·H⁻¹)[%d] = %v, want %v", seed, i, v/s, id.M[i])
			}
		}
	}
}

// TestSolveHomographyDegenerate pins the typed rejection: collinear,
// coincident and non-finite corner sets return ErrDegenerateQuad.
func TestSolveHomographyDegenerate(t *testing.T) {
	good := [4][2]float64{{0, 0}, {100, 0}, {100, 60}, {0, 60}}
	cases := []struct {
		name string
		pts  [4][2]float64
	}{
		{"collinear", [4][2]float64{{0, 0}, {10, 10}, {20, 20}, {30, 30}}},
		{"three-collinear", [4][2]float64{{0, 0}, {10, 0}, {20, 0}, {5, 30}}},
		{"coincident", [4][2]float64{{5, 5}, {5, 5}, {100, 60}, {0, 60}}},
		{"all-equal", [4][2]float64{{7, 7}, {7, 7}, {7, 7}, {7, 7}}},
		{"nan", [4][2]float64{{math.NaN(), 0}, {100, 0}, {100, 60}, {0, 60}}},
		{"inf", [4][2]float64{{math.Inf(1), 0}, {100, 0}, {100, 60}, {0, 60}}},
	}
	for _, tc := range cases {
		if _, err := SolveHomography(good, tc.pts); !errors.Is(err, ErrDegenerateQuad) {
			t.Errorf("%s as dst: err = %v, want ErrDegenerateQuad", tc.name, err)
		}
		if _, err := SolveHomography(tc.pts, good); !errors.Is(err, ErrDegenerateQuad) {
			t.Errorf("%s as src: err = %v, want ErrDegenerateQuad", tc.name, err)
		}
	}
}

// TestAxisAligned pins the frontal fast-path trigger: exact for affine
// axis-aligned maps (including non-unit projective scale), rejected for any
// rotation, shear or perspective term.
func TestAxisAligned(t *testing.T) {
	sx, sy, ox, oy, ok := AxisAlignedHomography(2, 0.5, 10, -4).AxisAligned()
	if !ok || sx != 2 || sy != 0.5 || ox != 10 || oy != -4 {
		t.Fatalf("axis-aligned map not recovered: %v %v %v %v %v", sx, sy, ox, oy, ok)
	}
	scaled := Homography{M: [9]float64{4, 0, 20, 0, 1, -8, 0, 0, 2}}
	sx, sy, ox, oy, ok = scaled.AxisAligned()
	if !ok || sx != 2 || sy != 0.5 || ox != 10 || oy != -4 {
		t.Fatalf("scaled axis-aligned map not normalized: %v %v %v %v %v", sx, sy, ox, oy, ok)
	}
	reject := []Homography{
		{M: [9]float64{2, 1e-9, 0, 0, 2, 0, 0, 0, 1}},  // shear
		{M: [9]float64{2, 0, 0, 0, 2, 0, 1e-12, 0, 1}}, // perspective
		{M: [9]float64{-2, 0, 0, 0, 2, 0, 0, 0, 1}},    // mirrored
		{M: [9]float64{2, 0, 0, 0, 2, 0, 0, 0, 0}},     // vanishing scale
	}
	for i, h := range reject {
		if _, _, _, _, ok := h.AxisAligned(); ok {
			t.Errorf("map %d wrongly classified axis-aligned", i)
		}
	}
}

// TestWarpIntoIdentity: the identity map reproduces an integral source
// bit-exactly (the Q16 corner taps are exact), and a float source exactly
// too (weights collapse to the top-left tap).
func TestWarpIntoIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	src := New(33, 21)
	for i := range src.Pix {
		src.Pix[i] = float32(rng.Intn(256))
	}
	dst := New(33, 21)
	WarpInto(src, dst, IdentityHomography())
	if !src.Equal(dst) {
		t.Fatal("identity warp of integral source is not bit-identical")
	}
	for i := range src.Pix {
		src.Pix[i] += 0.25 // knock the source off the integer lattice
	}
	WarpInto(src, dst, IdentityHomography())
	if !src.Equal(dst) {
		t.Fatal("identity warp of float source is not bit-identical")
	}
}

// TestWarpIntegralMatchesFloat bounds the integer path's deviation from the
// float reference under a genuine projective map: Q16 weights quantize at
// 2⁻¹⁶, so on 8-bit magnitudes the paths agree to well under one LSB.
func TestWarpIntegralMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := New(64, 48)
	for i := range src.Pix {
		src.Pix[i] = float32(rng.Intn(256))
	}
	h, err := SolveHomography(
		[4][2]float64{{0, 0}, {63, 0}, {63, 47}, {0, 47}},
		[4][2]float64{{2, 1}, {60, 3}, {58, 44}, {1, 46}},
	)
	if err != nil {
		t.Fatal(err)
	}
	di := New(64, 48)
	df := New(64, 48)
	warpIntegral(src, di, h)
	warpFloat(src, df, h)
	for i := range di.Pix {
		if d := math.Abs(float64(di.Pix[i] - df.Pix[i])); d > 0.01 {
			t.Fatalf("pixel %d: integer %v vs float %v (Δ %v)", i, di.Pix[i], df.Pix[i], d)
		}
	}
}

// TestWarpIntoOutOfBounds: samples past the source read the black overscan.
func TestWarpIntoOutOfBounds(t *testing.T) {
	src := New(8, 8)
	for i := range src.Pix {
		src.Pix[i] = 200
	}
	dst := New(8, 8)
	// Shift far off the source: every sample lands outside.
	WarpInto(src, dst, AxisAlignedHomography(1, 1, 100, 100))
	for i, v := range dst.Pix {
		if v != 0 {
			t.Fatalf("pixel %d = %v, want 0 (overscan)", i, v)
		}
	}
}

// TestWarpIntoAliasPanics pins the no-alias contract.
func TestWarpIntoAliasPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("aliased WarpInto did not panic")
		}
	}()
	f := New(4, 4)
	WarpInto(f, f, IdentityHomography())
}

// FuzzWarpInto shakes the warp with arbitrary pixel content and arbitrary
// (including non-finite and degenerate) homography entries: it must never
// panic, index out of range, or emit a non-finite sample from finite input.
func FuzzWarpInto(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(4), uint8(4), int64(1),
		1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
	f.Add(uint8(16), uint8(2), uint8(3), uint8(9), int64(2),
		0.5, 0.1, -3.0, -0.1, 2.0, 4.0, 1e-3, -1e-3, 1.0)
	f.Add(uint8(5), uint8(5), uint8(5), uint8(5), int64(3),
		math.NaN(), math.Inf(1), 0.0, 0.0, math.Inf(-1), 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(3), uint8(7), uint8(7), uint8(3), int64(4),
		1e300, -1e300, 1e-300, 0.0, 5e299, 0.0, 1.0, 1.0, 1e-300)
	// Integral sources (even seeds): the identity at equal sizes puts taps
	// on the last column and row, and a mild projective map gives
	// fractional Q16 weights everywhere.
	f.Add(uint8(8), uint8(8), uint8(8), uint8(8), int64(6),
		1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
	f.Add(uint8(16), uint8(12), uint8(20), uint8(14), int64(8),
		0.7, 0.05, 0.3, -0.04, 0.8, 0.2, 1e-3, 2e-3, 1.0)
	f.Fuzz(func(t *testing.T, sw, sh, dw, dh uint8, seed int64,
		m0, m1, m2, m3, m4, m5, m6, m7, m8 float64) {
		srcW, srcH := int(sw%64)+1, int(sh%64)+1
		dstW, dstH := int(dw%64)+1, int(dh%64)+1
		rng := rand.New(rand.NewSource(seed))
		src := New(srcW, srcH)
		integral := seed%2 == 0
		for i := range src.Pix {
			if integral {
				src.Pix[i] = float32(rng.Intn(256))
			} else {
				src.Pix[i] = float32(rng.Float64()*300 - 20)
			}
		}
		dst := New(dstW, dstH)
		h := Homography{M: [9]float64{m0, m1, m2, m3, m4, m5, m6, m7, m8}}
		WarpInto(src, dst, h)
		for i, v := range dst.Pix {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("pixel %d is non-finite (%v) from finite input", i, v)
			}
		}
		// The same map through the per-pixel reference and through a plan
		// built for these sizes, the plan into a dirty destination: all
		// three agree bit for bit.
		ref := New(dstW, dstH)
		referenceWarpInto(src, ref, h)
		planned := NewFilled(dstW, dstH, -7)
		NewWarpPlan(h, srcW, srcH, dstW, dstH).Into(src, planned)
		for i := range dst.Pix {
			if math.Float32bits(dst.Pix[i]) != math.Float32bits(ref.Pix[i]) {
				t.Fatalf("integral=%v pixel %d: WarpInto %v, reference %v", integral, i, dst.Pix[i], ref.Pix[i])
			}
			if math.Float32bits(planned.Pix[i]) != math.Float32bits(dst.Pix[i]) {
				t.Fatalf("integral=%v pixel %d: plan %v, WarpInto %v", integral, i, planned.Pix[i], dst.Pix[i])
			}
		}
	})
}

// referenceWarpInto is WarpInto as it stood before its integer path moved
// onto the shared rowTaps/gatherQ16 kernels, kept verbatim as the
// reference the plan and the kernels are pinned against: the per-pixel
// projective divide, the clamped x1/y1 taps and the truncated Q16 weights
// for an integral source, warpFloat for any other.
func referenceWarpInto(src, dst *Frame, h Homography) {
	if !fixed.IsIntegral8(src.Pix) {
		warpFloat(src, dst, h)
		return
	}
	m0, m1, m2 := h.M[0], h.M[1], h.M[2]
	m3, m4, m5 := h.M[3], h.M[4], h.M[5]
	m6, m7, m8 := h.M[6], h.M[7], h.M[8]
	maxX := float64(src.W - 1)
	maxY := float64(src.H - 1)
	const qOne = 1 << 16
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
			wx := int32((sx - float64(x0)) * qOne)
			wy := int32((sy - float64(y0)) * qOne)
			row0 := src.Pix[y0*src.W:]
			row1 := src.Pix[y1*src.W:]
			q := fixed.BilinearQ16(
				int32(row0[x0]), int32(row0[x1]),
				int32(row1[x0]), int32(row1[x1]), wx, wy)
			orow[x] = float32(q) * (1.0 / qOne)
		}
	}
}

// ReferenceWarpInto exports referenceWarpInto to the external frame_test
// package, whose plan tests need impair's pose maps (impair imports frame).
var ReferenceWarpInto = referenceWarpInto
