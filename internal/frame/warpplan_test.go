package frame_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"inframe/internal/frame"
	"inframe/internal/impair"
	"inframe/internal/parallel"
)

// poseFixture is the homography the blind projective calibration solves
// for the pose-tilt30 benchmark workload (cmd/inframe-perf): the rectified
// 960×540 display plane into the 1280×720 capture.
var poseFixture = frame.Homography{M: [9]float64{
	1.3429949110179933, 0.18357219005196032, -50.49116882968963,
	-0.005645845004421541, 1.2287795018550776, 19.48893833573328,
	-1.738417528699743e-05, 0.0002495741165308103, 0.94095939267444,
}}

// planCase is one warp the plan must reproduce: a map from the dstW×dstH
// destination into a srcW×srcH source.
type planCase struct {
	name       string
	h          frame.Homography
	srcW, srcH int
	dstW, dstH int
}

// planCases covers the two warps the pipeline reuses on every capture and
// the edge geometry of the tap kernel: taps exactly on the last column and
// row (where the per-pixel warp clamps x1/y1), an enlargement, a horizon
// line through the destination, and one-pixel-wide planes.
func planCases(t *testing.T) []planCase {
	t.Helper()
	poseInv, err := impair.PoseHomography(1280, 720, 30, 0, 1).Invert()
	if err != nil {
		t.Fatal(err)
	}
	enlarge, err := frame.SolveHomography(
		[4][2]float64{{0, 0}, {96, 0}, {96, 70}, {0, 70}},
		[4][2]float64{{1.5, 0.25}, {38.75, 2}, {37, 29}, {0.5, 28.5}})
	if err != nil {
		t.Fatal(err)
	}
	return []planCase{
		{"pose-inverse-30deg", poseInv, 1280, 720, 1280, 720},
		{"pose-tilt30-rectify", poseFixture, 1280, 720, 960, 540},
		{"identity", frame.IdentityHomography(), 97, 61, 97, 61},
		// 1.5× taps alternate between whole and half pixels; destination
		// column 42 and row 30 sample source column 63 and row 45 exactly,
		// the last ones, with zero weight on the clamped neighbour.
		{"last-column-and-row", frame.AxisAlignedHomography(1.5, 1.5, 0, 0), 64, 46, 43, 31},
		// The same lattice shifted half a pixel off the source's top-left
		// corner: the first row and column read the overscan.
		{"shifted-overscan", frame.AxisAlignedHomography(1.5, 1.5, -0.5, -0.5), 64, 46, 45, 33},
		{"enlarge", enlarge, 40, 30, 97, 71},
		// w = 0.02·x − 0.5 is exactly 0 at column 25: the horizon line
		// crosses every row. Right of it about a third of the samples land
		// in the source; left of it w < 0 and they fall above it.
		{"horizon", frame.Homography{M: [9]float64{0.5, 0, -10, 0, 0.3, 1, 0.02, 0, -0.5}}, 60, 40, 50, 30},
		{"1x1", frame.IdentityHomography(), 1, 1, 1, 1},
		{"1x1-from-plane", frame.AxisAlignedHomography(1, 1, 6.25, 3.5), 9, 7, 1, 1},
		{"1xN-column", frame.AxisAlignedHomography(1, 0.75, 0, 0.125), 1, 23, 1, 29},
		{"1xN-onto-row", frame.Homography{M: [9]float64{0, 0, 0, 0.5, 0, 0.25, 0, 0, 1}}, 1, 17, 31, 1},
	}
}

// source returns a seeded srcW×srcH plane: integral 8-bit values, or values
// off the integer lattice (and outside [0, 255]) that take the float path.
func source(w, h int, integral bool, seed int64) *frame.Frame {
	rng := rand.New(rand.NewSource(seed))
	f := frame.New(w, h)
	for i := range f.Pix {
		if integral {
			f.Pix[i] = float32(rng.Intn(256))
		} else {
			f.Pix[i] = float32(rng.Float64()*300 - 20)
		}
	}
	return f
}

// equalBits reports the first pixel whose float32 bits differ, or −1.
func equalBits(a, b *frame.Frame) int {
	for i := range a.Pix {
		if math.Float32bits(a.Pix[i]) != math.Float32bits(b.Pix[i]) {
			return i
		}
	}
	return -1
}

// TestWarpPlanMatchesWarpInto: a plan's Into is WarpInto through the plan's
// homography, bit for bit, for integral sources (the Q16 gather) and
// non-integral ones (the float path), into a dirty destination — and both
// equal the verbatim per-pixel warp the shared tap kernel replaced. Eight
// goroutines then gather through one plan at once, which the race detector
// checks is read-only.
func TestWarpPlanMatchesWarpInto(t *testing.T) {
	for _, c := range planCases(t) {
		plan := frame.NewWarpPlan(c.h, c.srcW, c.srcH, c.dstW, c.dstH)
		if got := plan.Homography(); got != c.h {
			t.Fatalf("%s: plan homography %v, built from %v", c.name, got.M, c.h.M)
		}
		for _, integral := range []bool{true, false} {
			name := fmt.Sprintf("%s/integral=%v", c.name, integral)
			src := source(c.srcW, c.srcH, integral, int64(c.srcW*131+c.dstH))
			ref := frame.New(c.dstW, c.dstH)
			frame.ReferenceWarpInto(src, ref, c.h)
			direct := frame.NewFilled(c.dstW, c.dstH, 999)
			frame.WarpInto(src, direct, c.h)
			planned := frame.NewFilled(c.dstW, c.dstH, -3)
			plan.Into(src, planned)
			if i := equalBits(direct, ref); i >= 0 {
				t.Errorf("%s: WarpInto pixel %d = %v, reference %v", name, i, direct.Pix[i], ref.Pix[i])
			}
			if i := equalBits(planned, ref); i >= 0 {
				t.Errorf("%s: plan pixel %d = %v, reference %v", name, i, planned.Pix[i], ref.Pix[i])
			}
		}
	}

	c := planCases(t)[1] // pose-tilt30's rectification, the receiver's shared plan
	plan := frame.NewWarpPlan(c.h, c.srcW, c.srcH, c.dstW, c.dstH)
	src := source(c.srcW, c.srcH, true, 5)
	want := frame.New(c.dstW, c.dstH)
	frame.WarpInto(src, want, c.h)
	const goroutines = 8
	outs := make([]*frame.Frame, goroutines)
	parallel.For(goroutines, goroutines, func(g int) {
		outs[g] = frame.NewFilled(c.dstW, c.dstH, float32(g))
		plan.Into(src, outs[g])
	})
	for g, out := range outs {
		if i := equalBits(out, want); i >= 0 {
			t.Errorf("goroutine %d: pixel %d = %v, want %v", g, i, out.Pix[i], want.Pix[i])
		}
	}
}

// TestWarpPlanPanics pins Into's contract: a source or destination of
// another size than the plan's, or a destination aliasing the source, is a
// plumbing bug and panics, as WarpInto does on aliasing; so does building
// a plan for a non-positive size.
func TestWarpPlanPanics(t *testing.T) {
	plan := frame.NewWarpPlan(frame.IdentityHomography(), 8, 6, 8, 6)
	f := frame.New(8, 6)
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"source size", func() { plan.Into(frame.New(6, 8), f) }},
		{"destination size", func() { plan.Into(f, frame.New(8, 5)) }},
		{"alias", func() { plan.Into(f, f) }},
		{"alias through Pix", func() { plan.Into(f, &frame.Frame{W: 8, H: 6, Pix: f.Pix}) }},
		{"zero size", func() { frame.NewWarpPlan(frame.IdentityHomography(), 0, 6, 8, 6) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: did not panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}
