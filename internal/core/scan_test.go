package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"inframe/internal/camera"
	"inframe/internal/display"
	"inframe/internal/frame"
	"inframe/internal/video"
)

// TestEnergyScanMatchesReference pins the streamed integer energy scan
// (Narrow8, WindowRows, RowAbsEnergy8 folded per Block row) against the
// measurement it replaced, kept below verbatim: the IsIntegral8 scan,
// WindowSums' full-plane int32 sums and RowAbsEnergy per Block row, with
// the float box blur for planes that fail the scan. Scores and qualities
// must agree by Float64bits on real camera captures at the four benchmark
// sensor sizes and smoothing radii 1, 2, 3 and 5, with and without shutter
// weights; at radii 127 and 128, the top of the kernels' range; on planes
// no wider or taller than the window; with Blocks outside the view and
// clamped at its edges; on an integral plane measured with warped set; and
// on captures carrying one hostile pixel in the first, a middle or the last
// row, each of which must take the old path with the old bits.
func TestEnergyScanMatchesReference(t *testing.T) {
	l, err := ScaledPaperLayout(2)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(l)
	d, err := display.New(display.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := newMux(t, p, video.Gray(l.FrameW, l.FrameH), NewRandomStream(l, 3))
	for k := 0; k < 4; k++ {
		if err := d.Push(m.Frame(k)); err != nil {
			t.Fatal(err)
		}
	}
	capture := func(w, h int) (*frame.Frame, camera.Config) {
		cfg := camera.DefaultConfig(w, h)
		cfg.BlurRadius = 0
		cam, err := camera.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return cam.Capture(d, 0.0123, 1), cfg
	}
	receiver := func(t *testing.T, rcfg ReceiverConfig) *Receiver {
		t.Helper()
		rx, err := NewReceiver(rcfg)
		if err != nil {
			t.Fatal(err)
		}
		return rx
	}
	const t0 = 0.0123

	t.Run("captures", func(t *testing.T) {
		for _, sz := range [][2]int{{640, 360}, {480, 270}, {320, 180}, {1280, 720}} {
			f, ccfg := capture(sz[0], sz[1])
			for _, r := range []int{1, 2, 3, 5} {
				rcfg := DefaultReceiverConfig(p, sz[0], sz[1])
				rcfg.SmoothRadius = r
				rcfg.Exposure, rcfg.ReadoutTime = ccfg.Exposure, ccfg.ReadoutTime
				rx := receiver(t, rcfg)
				for _, at := range []float64{math.NaN(), t0} {
					checkMeasure(t, fmt.Sprintf("%dx%d r=%d t0=%v", sz[0], sz[1], r, at), rx, f, at)
				}
			}
		}
		f, _ := capture(640, 360)
		rcfg := DefaultReceiverConfig(p, 640, 360)
		rcfg.Detector = DetectorMatched
		checkMeasure(t, "matched", receiver(t, rcfg), f, math.NaN())
		// The top of the window-sum kernels' range, where the scale
		// (2r+1)² = 66049 no longer fits 16 bits, and the radius below it.
		f, _ = capture(320, 180)
		for _, r := range []int{127, 128} {
			rcfg := DefaultReceiverConfig(p, 320, 180)
			rcfg.SmoothRadius = r
			checkMeasure(t, fmt.Sprintf("320x180 r=%d", r), receiver(t, rcfg), f, math.NaN())
		}
	})

	t.Run("thin", func(t *testing.T) {
		sp := smallParams()
		rng := rand.New(rand.NewSource(5))
		for _, c := range []struct{ w, h, r int }{
			{48, 8, 4}, {48, 9, 4}, {48, 11, 5}, {11, 32, 5}, {12, 32, 6}, {13, 32, 6}, {12, 9, 6},
		} {
			rcfg := DefaultReceiverConfig(sp, c.w, c.h)
			rcfg.SmoothRadius = c.r
			rx := receiver(t, rcfg)
			f := frame.New(c.w, c.h)
			for i := range f.Pix {
				f.Pix[i] = float32(rng.Intn(256))
			}
			checkMeasure(t, fmt.Sprintf("%dx%d r=%d", c.w, c.h, c.r), rx, f, math.NaN())
		}
	})

	t.Run("edge-rects", func(t *testing.T) {
		f, ccfg := capture(640, 360)
		pose := frame.AxisAlignedHomography(0.9, 0.9, -80, -40)
		rcfg := DefaultReceiverConfig(p, 640, 360)
		rcfg.Pose = &pose
		rcfg.Exposure, rcfg.ReadoutTime = ccfg.Exposure, ccfg.ReadoutTime
		rx := receiver(t, rcfg)
		var zero, left, right, top, bottom bool
		for _, rc := range rx.rects {
			zero = zero || rc.w == 0
			left = left || rc.w > 0 && rc.x0 == 0
			right = right || rc.w > 0 && rc.x0+rc.w == 640
			top = top || rc.w > 0 && rc.y0 == 0
			bottom = bottom || rc.w > 0 && rc.y0+rc.h == 360
		}
		if !zero || !left || !right || !top || !bottom {
			t.Fatalf("pose frames no Block outside the view or at every edge (zero %v, edges %v %v %v %v)",
				zero, left, right, top, bottom)
		}
		for _, r := range []int{1, 3} {
			rx.cfg.SmoothRadius = r
			checkMeasure(t, fmt.Sprintf("r=%d", r), rx, f, t0)
		}
	})

	t.Run("warped", func(t *testing.T) {
		f, ccfg := capture(640, 360)
		pose, err := frame.SolveHomography(
			[4][2]float64{{0, 0}, {960, 0}, {960, 540}, {0, 540}},
			[4][2]float64{{20, 12}, {610, 30}, {625, 348}, {8, 330}})
		if err != nil {
			t.Fatal(err)
		}
		rcfg := DefaultReceiverConfig(p, 640, 360)
		rcfg.Pose = &pose
		rcfg.Exposure, rcfg.ReadoutTime = ccfg.Exposure, ccfg.ReadoutTime
		rx := receiver(t, rcfg)
		if rx.rectify == nil {
			t.Fatal("pose did not take the projective path")
		}
		checkMeasure(t, "capture", rx, f, t0)
		// An integral plane on the warped path: the scan with the pose's
		// row mapping and tent weights.
		plane := m.Frame(1)
		for _, at := range []float64{math.NaN(), t0} {
			gs, gq := rx.measureOn(plane, at, true)
			ws, wq := referenceMeasureOn(rx, plane, at, true)
			sameBits(t, fmt.Sprintf("integral warped t0=%v", at), gs, gq, ws, wq)
		}
	})

	t.Run("hostile", func(t *testing.T) {
		f, ccfg := capture(320, 180)
		rcfg := DefaultReceiverConfig(p, 320, 180)
		rcfg.Exposure, rcfg.ReadoutTime = ccfg.Exposure, ccfg.ReadoutTime
		rx := receiver(t, rcfg)
		hostile := []float32{
			float32(math.Copysign(0, -1)), 0.5, 256, -1, float32(math.NaN()),
			float32(math.Inf(1)), float32(math.Inf(-1)), 1e-45,
		}
		for _, v := range hostile {
			for _, y := range []int{0, 90, 179} {
				g := f.Clone()
				g.Pix[y*g.W+g.W/2] = v
				checkMeasure(t, fmt.Sprintf("%v in row %d", v, y), rx, g, t0)
			}
			g := f.Clone()
			g.Pix[len(g.Pix)-1] = v
			checkMeasure(t, fmt.Sprintf("%v last", v), rx, g, t0)
		}
	})
}

// checkMeasure compares one MeasureCaptureAt with the reference.
func checkMeasure(t *testing.T, name string, rx *Receiver, f *frame.Frame, t0 float64) {
	t.Helper()
	gs, gq := rx.MeasureCaptureAt(f, t0)
	ws, wq := referenceMeasureCaptureAt(rx, f, t0)
	sameBits(t, name, gs, gq, ws, wq)
}

func sameBits(t *testing.T, name string, gs, gq, ws, wq []float64) {
	t.Helper()
	for i := range ws {
		if math.Float64bits(gs[i]) != math.Float64bits(ws[i]) || math.Float64bits(gq[i]) != math.Float64bits(wq[i]) {
			t.Fatalf("%s: Block %d scores %v quality %v, reference %v %v", name, i, gs[i], gq[i], ws[i], wq[i])
		}
	}
}

// referenceMeasureCaptureAt is MeasureCaptureAt over referenceMeasureOn.
func referenceMeasureCaptureAt(r *Receiver, f *frame.Frame, t0 float64) ([]float64, []float64) {
	if r.rectify != nil {
		rectified := frame.New(r.rectW, r.rectH)
		r.rectify.Into(f, rectified)
		return referenceMeasureOn(r, rectified, t0, true)
	}
	return referenceMeasureOn(r, f, t0, false)
}

// refIntBufs stands in for the pooled integer scratch of the reference.
type refIntBufs struct {
	sums, col []int32
}

// The reference measurement, verbatim but for the renames, fresh scratch
// (window sums and shutter weights) in place of the pooled one, and the
// dropped lint directives (this file is not linted).

// refIsIntegral8 reports whether every sample is an integer in [0, 255] —
// the precondition for the exact integer window-sum kernels (quantized
// captures satisfy it; impaired frames with analog gain generally do not).
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

// refWindowScratch returns the length of the col scratch refWindowSums needs
// for a w×h plane at radius r: min(r+1, h) saved row sums plus one row of
// running column sums, each w wide.
func refWindowScratch(w, h, r int) int {
	return (min(r+1, h) + 1) * w
}

// refWindowSums computes, for every pixel of an integral-valued w×h plane,
// the (2r+1)×(2r+1) replicate-padded box window sum into sums (len w·h),
// as two separable integer sliding passes: rows, then columns in place,
// walked row by row with one running sum per column. col is the column
// pass's scratch, at least refWindowScratch(w, h, r) long. The result is the
// exact integer numerator of the box blur the float demodulator computed
// with rounding: sums[i] / (2r+1)² is the blurred plane.
func refWindowSums(pix []float32, w, h, r int, sums, col []int32) {
	// Row pass: sums[y*w+x] = Σ pix[y*w+clamp(x-r..x+r)].
	for y := 0; y < h; y++ {
		row := pix[y*w : (y+1)*w]
		out := sums[y*w : (y+1)*w]
		var s int32
		for i := -r; i <= r; i++ {
			s += int32(row[refClampIdx(i, w)])
		}
		for x := 0; x < w; x++ {
			out[x] = s
			s += int32(row[refClampIdx(x+r+1, w)]) - int32(row[refClampIdx(x-r, w)])
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
		in := sums[refClampIdx(i, h)*w:][:w]
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
		in := sums[refClampIdx(y+r+1, h)*w:][:w]
		outgoing := ring[(refClampIdx(y-r, h)%n)*w:][:w]
		for x, s := range acc {
			saved[x] = out[x]
			out[x] = s
			acc[x] = s + (in[x] - outgoing[x])
		}
	}
}

// refClampIdx clamps a window coordinate into [0, n): replicate padding,
// matching frame.BoxBlurInto's edge handling.
func refClampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// refRowAbsEnergy accumulates Σ |pix[i]·scale − sums[i]| over one row span in
// exact integer arithmetic: the high-frequency chessboard energy numerator
// of the §3.3 detector, scaled by scale = (2r+1)². Each term is bounded by
// 255·scale (< 2^25 for r ≤ 128), so the int32 difference cannot wrap; the
// row accumulator is int64 so no row width can overflow it.
func refRowAbsEnergy(pix []float32, sums []int32, scale int32) int64 {
	var acc int64
	for i, v := range pix {
		d := int32(v)*scale - sums[i]
		if d < 0 {
			d = -d
		}
		acc += int64(d)
	}
	return acc
}

func referenceMeasureOn(r *Receiver, f *frame.Frame, t0 float64, warped bool) ([]float64, []float64) {
	scores := make([]float64, len(r.rects))
	quality := make([]float64, len(r.rects))
	// Integer fast path (DESIGN.md §5j): an 8-bit-quantized capture under
	// the energy detector measures through exact integer window sums
	// instead of the float box blur — Σ|pix·(2r+1)² − windowsum| / (2r+1)²
	// is the blur-subtract residual without the float rounding of the
	// two-pass blur. Matched-detector and non-integral (e.g. analog-gain
	// impaired) captures keep the float path. The radius bounds restate
	// ReceiverConfig.Validate: the window-sum kernels' documented range.
	sr := r.cfg.SmoothRadius
	var (
		sm    *frame.Frame
		bufs  *refIntBufs
		scale int32 = 1
	)
	if r.cfg.Detector == DetectorEnergy && sr >= 1 && sr <= 128 && refIsIntegral8(f.Pix) {
		bufs = &refIntBufs{sums: make([]int32, f.W*f.H), col: make([]int32, refWindowScratch(f.W, f.H, sr))}
		refWindowSums(f.Pix, f.W, f.H, sr, bufs.sums, bufs.col)
		side := int32(2*sr + 1)
		scale = side * side
	} else {
		// The smoothing plane is pure scratch: borrowed from the pool for
		// the scan below and returned before this measurement ends.
		sm = r.pool.Get(f.W, f.H)
		frame.BoxBlurInto(f, sm, r.cfg.SmoothRadius, r.pool)
	}
	weights := r.rowWeights(t0, make([]float64, r.cfg.CaptureH))
	l := r.cfg.Layout
	// Chessboard phase in capture coordinates, for the matched detector:
	// display Pixel (x/p, y/p) found by inverting the calibration map (in
	// projective mode the scan runs on the rectified plane, where the
	// axis-aligned calib is the correct map by construction).
	calib := r.calib
	var pose frame.Homography
	if warped {
		pose = r.rectify.Homography()
	}
	sxInv := 1 / calib.ScaleX
	syInv := 1 / calib.ScaleY
	offX, offY := calib.OffX, calib.OffY
	for i, rect := range r.rects {
		if rect.w == 0 || rect.h == 0 {
			scores[i] = math.NaN()
			continue
		}
		var acc float64
		var n float64
		// Shutter weights are indexed by *sensor* row. On the rigid path the
		// scan plane is the sensor; in projective mode each rectified row
		// images from the sensor row the pose maps it to (taken at the
		// Block's center column — row-timing varies slowly across a Block).
		cxMid := float64(rect.x0) + float64(float64(rect.w)/2)
		for y := rect.y0; y < rect.y0+rect.h; y++ {
			rowW := 1.0
			if weights != nil {
				wy := y
				if warped {
					_, fy, ok := pose.Apply(cxMid, float64(y)+0.5)
					if !ok {
						continue
					}
					wy = int(fy)
					if wy < 0 || wy >= len(weights) {
						// The row reads only overscan zeros; skip it.
						continue
					}
				}
				rowW = weights[wy]
				if rowW == 0 {
					continue
				}
			}
			if warped {
				// Spatial-aggregation weighting for residual warp: a tent
				// over the Block's rows, [0.5, 1] with the peak at the
				// center. Registration errors displace a Block's edges
				// first, so edge rows carry the neighbour-mixing risk;
				// down-weighting them degrades the estimate smoothly with
				// residual warp instead of cliffing, and the SNR-style
				// Σw·m / Σw² estimator below stays unbiased for clean rows.
				fr := float64(2*(y-rect.y0)+1)/float64(rect.h) - 1
				rowW *= 1 - float64(0.5*math.Abs(fr))
			}
			base := y * f.W
			var rowAcc float64
			if bufs != nil {
				rs := base + rect.x0
				rowAcc = float64(refRowAbsEnergy(f.Pix[rs:rs+rect.w], bufs.sums[rs:rs+rect.w], scale)) / float64(scale)
			} else {
				for x := rect.x0; x < rect.x0+rect.w; x++ {
					d := float64(f.Pix[base+x] - sm.Pix[base+x])
					switch r.cfg.Detector {
					case DetectorMatched:
						dx := int((float64(x)-offX)*sxInv) / l.PixelSize
						dy := int((float64(y)-offY)*syInv) / l.PixelSize
						if ChessOn(dx, dy) {
							rowAcc += d
						} else {
							rowAcc -= d
						}
					default:
						rowAcc += math.Abs(d)
					}
				}
			}
			// SNR weighting: estimate = Σ w·m / Σ w², which reduces to the
			// plain mean when every row is clean (w = 1).
			acc += float64(rowAcc * rowW)
			n += float64(float64(rect.w) * rowW * rowW)
		}
		// n sums strictly positive terms (rect.w · rowW², rowW ≥ the
		// attenuation floor), so it is exactly zero iff every row was
		// skipped — the division guard needs the exact test.
		if n == 0 {
			scores[i] = math.NaN()
			quality[i] = 0
			continue
		}
		s := acc / n
		if r.cfg.Detector == DetectorMatched {
			s = math.Abs(s)
		}
		scores[i] = s
		quality[i] = n / float64(rect.w*rect.h)
	}
	r.pool.Put(sm) // nil on the integer path: a no-op by the Put contract
	return scores, quality
}
