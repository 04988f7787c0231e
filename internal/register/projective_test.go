package register

import (
	"errors"
	"math"
	"sync"
	"testing"

	"inframe/internal/core"
	"inframe/internal/frame"
	"inframe/internal/impair"
)

// posedCaptures warps ideal rendered captures through a pinhole camera pose,
// the same geometry model the impair stack applies.
func posedCaptures(t testing.TB, l core.Layout, tiltDeg, rollDeg, dist float64, n int) ([]*frame.Frame, frame.Homography) {
	t.Helper()
	caps := renderedCaptures(t, l, nil, n)
	pose := impair.PoseHomography(l.FrameW, l.FrameH, tiltDeg, rollDeg, dist)
	inv, err := pose.Invert()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range caps {
		warped := frame.New(c.W, c.H)
		frame.WarpInto(c, warped, inv)
		caps[i] = warped
	}
	return caps, pose
}

func TestGridCorners(t *testing.T) {
	l := testLayout()
	q := GridCorners(l)
	want := Quad{{8, 4}, {104, 4}, {104, 68}, {8, 68}}
	if q != want {
		t.Fatalf("GridCorners = %v, want %v", q, want)
	}
}

// TestDetectQuadFrontal: on frontal captures the detected quad must frame
// the chessboard-bearing grid, with a few pixels of blur-driven spread.
func TestDetectQuadFrontal(t *testing.T) {
	l := testLayout()
	caps := renderedCaptures(t, l, nil, 10)
	q, err := DetectQuad(caps)
	if err != nil {
		t.Fatal(err)
	}
	want := GridCorners(l)
	for i := range q {
		if math.Abs(q[i][0]-want[i][0]) > 5 || math.Abs(q[i][1]-want[i][1]) > 5 {
			t.Fatalf("corner %d at (%v,%v), want ≈(%v,%v)", i, q[i][0], q[i][1], want[i][0], want[i][1])
		}
	}
}

func TestDetectQuadRejectsFlat(t *testing.T) {
	if _, err := DetectQuad([]*frame.Frame{frame.NewFilled(64, 64, 127)}); !errors.Is(err, ErrNoRegion) {
		t.Fatalf("flat captures: err = %v, want ErrNoRegion", err)
	}
	if _, err := DetectQuad(nil); !errors.Is(err, ErrNoRegion) {
		t.Fatalf("no captures: err = %v, want ErrNoRegion", err)
	}
}

// TestCalibrateProjectiveFrontal pins the frontal tie-break: on undistorted
// captures the solver must return the exactly axis-aligned full-frame
// hypothesis, so the receiver's fast path stays reachable.
func TestCalibrateProjectiveFrontal(t *testing.T) {
	l := testLayout()
	caps := renderedCaptures(t, l, nil, 10)
	h, err := CalibrateProjective(l, caps)
	if err != nil {
		t.Fatal(err)
	}
	sx, sy, ox, oy, ok := h.AxisAligned()
	if !ok {
		t.Fatalf("frontal calibration is not axis-aligned: %v", h.M)
	}
	ff := core.FullFrame(l, caps[0].W, caps[0].H)
	if sx != ff.ScaleX || sy != ff.ScaleY || ox != ff.OffX || oy != ff.OffY {
		t.Fatalf("frontal calibration (%v,%v,%v,%v) != full-frame mapping %+v", sx, sy, ox, oy, ff)
	}
}

// TestCalibrateProjectivePosed: on keystoned captures the solved homography
// must land each grid corner within a couple of Block pitches of where the
// true pose puts it, and must beat the frontal hypothesis on the alignment
// score (i.e. the tie-break must not swallow a real pose).
func TestCalibrateProjectivePosed(t *testing.T) {
	l := testLayout()
	for _, tc := range []struct {
		name             string
		tilt, roll, dist float64
	}{
		{"tilt-20", 20, 0, 1},
		{"tilt-25-roll-5-far", 25, 5, 1.3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			caps, pose := posedCaptures(t, l, tc.tilt, tc.roll, tc.dist, 10)
			h, err := CalibrateProjective(l, caps)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, _, _, ok := h.AxisAligned(); ok {
				t.Fatal("posed calibration collapsed to the frontal hypothesis")
			}
			tol := 2 * float64(l.BlockPx())
			for _, c := range GridCorners(l) {
				wx, wy, ok1 := pose.Apply(c[0], c[1])
				gx, gy, ok2 := h.Apply(c[0], c[1])
				if !ok1 || !ok2 {
					t.Fatalf("corner (%v,%v) on horizon", c[0], c[1])
				}
				if math.Abs(gx-wx) > tol || math.Abs(gy-wy) > tol {
					t.Fatalf("corner (%v,%v) solved to (%.1f,%.1f), true pose (%.1f,%.1f)",
						c[0], c[1], gx, gy, wx, wy)
				}
			}
		})
	}
}

// FuzzRegister shakes the projective registration front end with arbitrary
// pixel buffers and corner coordinates: DetectQuad, CalibrateProjective and
// SolveHomography must never panic, index out of range, or hand back a
// non-finite homography as a success.
func FuzzRegister(f *testing.F) {
	f.Add([]byte{0, 255, 0, 255, 128, 7}, uint8(8), uint8(8), uint8(3),
		0.0, 0.0, 100.0, 0.0, 100.0, 60.0, 0.0, 60.0)
	f.Add([]byte{1, 2, 3}, uint8(1), uint8(1), uint8(1),
		math.NaN(), math.Inf(1), 0.0, 0.0, 1e300, -1e300, 5.0, 5.0)
	f.Add([]byte{}, uint8(40), uint8(30), uint8(2),
		0.0, 0.0, 10.0, 10.0, 20.0, 20.0, 30.0, 30.0)
	f.Fuzz(func(t *testing.T, data []byte, w, h, n uint8,
		x0, y0, x1, y1, x2, y2, x3, y3 float64) {
		l := testLayout()
		fw, fh := int(w%96)+1, int(h%96)+1
		caps := make([]*frame.Frame, int(n%4)+1)
		for i := range caps {
			c := frame.New(fw, fh)
			for j := range c.Pix {
				if len(data) > 0 {
					c.Pix[j] = float32(data[(i*len(c.Pix)+j)%len(data)])
				}
			}
			caps[i] = c
		}
		if q, err := DetectQuad(caps); err == nil {
			for _, c := range q {
				if math.IsNaN(c[0]) || math.IsNaN(c[1]) {
					t.Fatalf("DetectQuad returned NaN corner %v", q)
				}
			}
		}
		if hm, err := CalibrateProjective(l, caps); err == nil {
			if err := hm.Validate(); err != nil {
				t.Fatalf("CalibrateProjective returned invalid homography: %v", err)
			}
		}
		dst := [4][2]float64{{x0, y0}, {x1, y1}, {x2, y2}, {x3, y3}}
		if hm, err := frame.SolveHomography(GridCorners(l), dst); err == nil {
			if err := hm.Validate(); err != nil {
				t.Fatalf("SolveHomography success with invalid homography: %v", err)
			}
		}
	})
}

// referenceDiffIntegrals is the matched filter's input as one integralImage
// per mean-subtracted plane, built through an intermediate difference frame:
// the formulation diffIntegrals' interleaved table must reproduce node for
// node.
func referenceDiffIntegrals(caps []*frame.Frame) []*integralImage {
	w, h := caps[0].W, caps[0].H
	mean := frame.New(w, h)
	inv := 1 / float32(len(caps))
	for _, c := range caps {
		for i, v := range c.Pix {
			mean.Pix[i] += float32(v * inv)
		}
	}
	n := len(caps)
	if n > 6 {
		n = 6
	}
	iis := make([]*integralImage, n)
	diff := frame.New(w, h)
	for i := 0; i < n; i++ {
		for j, v := range caps[i].Pix {
			diff.Pix[j] = v - mean.Pix[j]
		}
		iis[i] = newIntegral(diff)
	}
	return iis
}

// referenceMFScoreStride is the matched filter evaluated plane by plane:
// four homography applications per cell and one rectMeanFrac per cell and
// plane. mfScoreStride must equal it bit for bit.
func referenceMFScoreStride(l core.Layout, iis []*integralImage, h frame.Homography, stride int) float64 {
	ps := l.PixelSize
	n := len(iis)
	if n > 6 {
		n = 6
	}
	var accs [6]float64
	for by := 0; by < l.BlocksY; by += stride {
		for bx := 0; bx < l.BlocksX; bx += stride {
			x0, y0, w, hh := l.BlockRect(bx, by)
			pi0, pj0 := x0/ps, y0/ps
			for cj := 0; cj*ps < hh; cj++ {
				cy0 := float64(y0 + cj*ps)
				for ci := 0; ci*ps < w; ci++ {
					cx0 := float64(x0 + ci*ps)
					minX, minY, maxX, maxY, ok := referenceWarpedBox(h, cx0, cy0, cx0+float64(ps), cy0+float64(ps))
					if !ok {
						continue
					}
					if core.ChessOn(pi0+ci, pj0+cj) {
						for i := 0; i < n; i++ {
							accs[i] += iis[i].rectMeanFrac(minX, minY, maxX, maxY)
						}
					} else {
						for i := 0; i < n; i++ {
							accs[i] -= iis[i].rectMeanFrac(minX, minY, maxX, maxY)
						}
					}
				}
			}
		}
	}
	var total float64
	for i := 0; i < n; i++ {
		total += math.Abs(accs[i])
	}
	return total / float64(n)
}

// referenceWarpedBox maps a display rectangle's corners through h and
// returns the warped footprint's bounding box; a corner on the horizon line
// reports ok=false.
func referenceWarpedBox(h frame.Homography, x0, y0, x1, y1 float64) (minX, minY, maxX, maxY float64, ok bool) {
	n := 0
	for _, c := range [4][2]float64{{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}} {
		fx, fy, applied := h.Apply(c[0], c[1])
		if !applied {
			return 0, 0, 0, 0, false
		}
		if n == 0 || fx < minX {
			minX = fx
		}
		if n == 0 || fx > maxX {
			maxX = fx
		}
		if n == 0 || fy < minY {
			minY = fy
		}
		if n == 0 || fy > maxY {
			maxY = fy
		}
		n++
	}
	return minX, minY, maxX, maxY, true
}

// sameHomography reports whether two homographies are equal bit for bit.
func sameHomography(a, b frame.Homography) bool {
	for i := range a.M {
		if math.Float64bits(a.M[i]) != math.Float64bits(b.M[i]) {
			return false
		}
	}
	return true
}

// TestMFScoreMatchesReference pins the fused matched filter to the
// per-plane reference under bit equality: the interleaved table must hold
// each plane's integral node for node, and the score must match at strides
// 1 and 2 for every plane count, across posed captures and under
// homographies that clip boxes at all four plane borders or put lattice
// corners on the horizon line.
func TestMFScoreMatchesReference(t *testing.T) {
	l := testLayout()
	// A 1.6× zoom about the panel centre pushes the grid past all four
	// capture borders: boxes clip on every side and some clip to nothing.
	zoom := frame.AxisAlignedHomography(1.6, 1.6, 56-1.6*56, 36-1.6*36)
	// w = 1 − x/128 − y/64 vanishes exactly on lattice corners such as
	// (64, 32) and (96, 16); cells beyond that line warp through negative w.
	horizon := frame.Homography{M: [9]float64{1, 0, 0, 0, 1, 0, -1.0 / 128, -1.0 / 64, 1}}
	if _, _, ok := horizon.Apply(64, 32); ok {
		t.Fatal("horizon homography does not reach the !ok path")
	}
	for _, c := range GridCorners(l) {
		if x, y, _ := zoom.Apply(c[0], c[1]); x > 0 && x < float64(l.FrameW) && y > 0 && y < float64(l.FrameH) {
			t.Fatalf("zoom keeps grid corner (%v,%v) inside the capture", c[0], c[1])
		}
	}
	shift := frame.AxisAlignedHomography(1, 1, 0.37, -0.61)
	// One lattice serves every score, as it does a scorer's evaluations: each
	// Block overwrites it before reading it.
	lat := newLattice(l)
	for _, pc := range []struct{ tilt, roll, dist float64 }{
		{0, 0, 1}, {10, -4, 1}, {20, 5, 1.1}, {30, -8, 1.2}, {45, 10, 1}, {60, 3, 1.3},
	} {
		for ncaps := 1; ncaps <= 10; ncaps++ {
			caps, pose := posedCaptures(t, l, pc.tilt, pc.roll, pc.dist, ncaps)
			// Fractional offsets keep the float32 deviations from being
			// exact by accident, as they are on 8-bit captures.
			for i, c := range caps {
				for j := range c.Pix {
					c.Pix[j] += float32((j*7919+i*104729)%1000) / 997
				}
			}
			tab := diffIntegrals(caps, temporalMean(caps))
			iis := referenceDiffIntegrals(caps)
			if tab.n != len(iis) {
				t.Fatalf("%d captures: %d planes, reference %d", ncaps, tab.n, len(iis))
			}
			for i, ii := range iis {
				for k, v := range ii.sum {
					if math.Float64bits(tab.sum[k*mfPlanes+i]) != math.Float64bits(v) {
						t.Fatalf("%d captures, plane %d node %d: %v, reference %v", ncaps, i, k, tab.sum[k*mfPlanes+i], v)
					}
				}
			}
			for hi, h := range []frame.Homography{pose, shift.Mul(pose), zoom, zoom.Mul(pose), horizon, horizon.Mul(pose)} {
				for _, stride := range []int{1, 2} {
					got := mfScoreStride(l, tab, h, stride, lat)
					want := referenceMFScoreStride(l, iis, h, stride)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("tilt %v roll %v, %d captures, homography %d, stride %d: score %v, reference %v",
							pc.tilt, pc.roll, ncaps, hi, stride, got, want)
					}
				}
			}
		}
	}
}

// TestMFScoreWideTable pins the fused matched filter on a capture wider
// than 2¹⁵/mfPlanes pixels, where a 16-bit table row stride would wrap: the
// test grid, shifted to the far right of a 5,600-pixel-wide capture, must
// score as the per-plane reference does.
func TestMFScoreWideTable(t *testing.T) {
	l := testLayout()
	const w = 5600
	caps := make([]*frame.Frame, 3)
	for i := range caps {
		c := frame.New(w, l.FrameH)
		for j := range c.Pix {
			c.Pix[j] = float32((j*7919+i*104729)%256) + float32(j%997)/997
		}
		caps[i] = c
	}
	tab := diffIntegrals(caps, temporalMean(caps))
	iis := referenceDiffIntegrals(caps)
	h := frame.AxisAlignedHomography(1, 1, w-float64(l.FrameW)-3.5, 0.25)
	lat := newLattice(l)
	for _, stride := range []int{1, 2} {
		got := mfScoreStride(l, tab, h, stride, lat)
		want := referenceMFScoreStride(l, iis, h, stride)
		if !(want > 0) {
			t.Fatalf("stride %d: reference score %v; the grid misses the table", stride, want)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("stride %d: score %v, reference %v", stride, got, want)
		}
	}
}

// TestCalibrateProjectiveWorkerInvariance: the six candidate chains run
// concurrently, and the solve must not depend on how many workers run them.
func TestCalibrateProjectiveWorkerInvariance(t *testing.T) {
	l := testLayout()
	frontal := renderedCaptures(t, l, nil, 10)
	tilt20, _ := posedCaptures(t, l, 20, 0, 1, 10)
	far, _ := posedCaptures(t, l, 25, 5, 1.3, 10)
	for _, tc := range []struct {
		name string
		caps []*frame.Frame
	}{
		{"frontal", frontal},
		{"tilt-20", tilt20},
		{"tilt-25-roll-5-far", far},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := calibrateProjective(l, tc.caps, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 8} {
				got, err := calibrateProjective(l, tc.caps, w)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if !sameHomography(got, want) {
					t.Fatalf("workers=%d solved %v, workers=1 %v", w, got.M, want.M)
				}
			}
		})
	}
}

// solvePin is one blind solve's expected outcome: the homography's
// Float64bits and, per candidate chain, how many distinct (quad bits,
// stride) candidates it evaluates. Both were recorded from the search
// before its scorers remembered evaluations, when every repeat was solved
// and scored again: the memo must change neither the solve nor the set of
// candidates, only how often each is evaluated.
type solvePin struct {
	h     [9]uint64
	evals [6]int
}

// checkSolvePin solves caps at the given worker budget and checks the
// result against pin: the homography bit for bit, and that every chain
// evaluates each of its candidates exactly once.
func checkSolvePin(t *testing.T, l core.Layout, caps []*frame.Frame, workers int, pin solvePin) {
	t.Helper()
	var (
		mu   sync.Mutex
		seen [6]map[scoreKey]int
	)
	testHookEval = func(chain int, k scoreKey) {
		mu.Lock()
		defer mu.Unlock()
		if seen[chain] == nil {
			seen[chain] = map[scoreKey]int{}
		}
		seen[chain][k]++
	}
	defer func() { testHookEval = nil }()
	h, err := calibrateProjective(l, caps, workers)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var got [9]uint64
	for i, v := range h.M {
		got[i] = math.Float64bits(v)
	}
	if got != pin.h {
		t.Errorf("workers=%d: solved %v (bits %#x), pinned %#x", workers, h.M, got, pin.h)
	}
	for c, keys := range seen {
		for k, n := range keys {
			if n > 1 {
				t.Errorf("workers=%d: chain %d evaluated quad %#x stride %d %d times", workers, c, k.q, k.stride, n)
			}
		}
		if len(keys) != pin.evals[c] {
			t.Errorf("workers=%d: chain %d evaluated %d candidates, pinned %d", workers, c, len(keys), pin.evals[c])
		}
	}
}

// TestCalibrateProjectivePinned pins two posed solves on the test layout at
// one and two workers: see solvePin.
func TestCalibrateProjectivePinned(t *testing.T) {
	l := testLayout()
	for _, tc := range []struct {
		name             string
		tilt, roll, dist float64
		pin              solvePin
	}{
		{"tilt-20", 20, 0, 1, solvePin{
			h: [9]uint64{
				0x3fefb8ef0a17c737, 0x3fbaed53d038c85c, 0xc0160e21c6c75398,
				0xbf8ed6684a6ecdc7, 0x3ff0053a3570d4d7, 0xbff097ed32ea47a0,
				0xbf23d9be6e588220, 0x3f5c077be92e0753, 0x3fee4cf3641cf944,
			},
			evals: [6]int{48, 424, 57, 288, 49, 306},
		}},
		{"tilt-25-roll-5-far", 25, 5, 1.3, solvePin{
			h: [9]uint64{
				0x3fe8d5bcc7629a45, 0x3fa4c2d6047e5d21, 0x40266aaf7f6ad884,
				0x3fb260260064453c, 0x3fe85ca651204112, 0x4009d429cb574f30,
				0x3f25e16c79c7d206, 0x3f5fb1dbefc22132, 0x3fed78e98d7a1e4b,
			},
			evals: [6]int{60, 529, 48, 424, 49, 521},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			caps, _ := posedCaptures(t, l, tc.tilt, tc.roll, tc.dist, 10)
			for _, w := range []int{1, 2} {
				checkSolvePin(t, l, caps, w, tc.pin)
			}
		})
	}
}

// TestCalibrateProjectiveHalfScalePinned pins BenchmarkCalibrateProjective's
// solve — 30° tilt on the half-scale paper layout — the same way.
func TestCalibrateProjectiveHalfScalePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("blind solve of half-scale captures takes several seconds")
	}
	l, err := core.ScaledPaperLayout(2)
	if err != nil {
		t.Fatal(err)
	}
	caps, _ := posedCaptures(t, l, 30, 0, 1, 10)
	checkSolvePin(t, l, caps, 0, solvePin{
		h: [9]uint64{
			0x3feff1367b88fad7, 0x3fc0f9bdcc0615bc, 0xc03e89031f6e2510,
			0x3f17978425fac312, 0x3fedd5e6cdf746ea, 0x40329ef9ee897ae0,
			0x3ef1101c635e6994, 0x3f32e6165eed05f6, 0x3fed422e22879e6b,
		},
		evals: [6]int{58, 395, 52, 441, 49, 265},
	})
}

// BenchmarkCalibrateProjective times one blind solve on posed 30° captures
// of the half-scale paper layout. Run it with -benchtime 1x -benchmem; -cpu 1
// measures the matched-filter kernel alone, -cpu 2 adds the concurrent
// candidate chains.
func BenchmarkCalibrateProjective(b *testing.B) {
	l, err := core.ScaledPaperLayout(2)
	if err != nil {
		b.Fatal(err)
	}
	caps, _ := posedCaptures(b, l, 30, 0, 1, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CalibrateProjective(l, caps); err != nil {
			b.Fatal(err)
		}
	}
}
