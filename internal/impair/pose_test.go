package impair

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"inframe/internal/frame"
	"inframe/internal/parallel"
)

// TestPoseHomographyIdentity: the zero pose at nominal distance is the exact
// identity map — the precondition for the receiver's frontal fast path.
func TestPoseHomographyIdentity(t *testing.T) {
	h := PoseHomography(112, 72, 0, 0, 1)
	sx, sy, ox, oy, ok := h.AxisAligned()
	if !ok || sx != 1 || sy != 1 || ox != 0 || oy != 0 {
		t.Fatalf("zero pose is not the exact identity: (%v,%v,%v,%v,%v) from %v", sx, sy, ox, oy, ok, h.M)
	}
	// dist ≤ 0 means the nominal distance.
	if h0 := PoseHomography(112, 72, 0, 0, 0); h0 != h {
		t.Fatalf("dist=0 pose %v differs from dist=1 pose %v", h0.M, h.M)
	}
	for _, p := range [][2]float64{{0, 0}, {111, 71}, {55.5, 35.5}, {13, 60}} {
		x, y, ok := h.Apply(p[0], p[1])
		if !ok || x != p[0] || y != p[1] {
			t.Fatalf("identity pose maps (%v,%v) to (%v,%v,%v)", p[0], p[1], x, y, ok)
		}
	}
}

// TestPoseHomographyInvertibleOverValidatedRange sweeps the whole pose box
// Validate admits (plus the jitter allowance): every pose must invert, and
// the inverse must round-trip screen points.
func TestPoseHomographyInvertibleOverValidatedRange(t *testing.T) {
	for _, dims := range [][2]int{{112, 72}, {192, 128}, {64, 64}} {
		w, h := dims[0], dims[1]
		for tilt := -75.0; tilt <= 75; tilt += 15 {
			for roll := -180.0; roll <= 180; roll += 45 {
				for _, dist := range []float64{0.5, 1, 2.5, 4} {
					pose := PoseHomography(w, h, tilt, roll, dist)
					inv, err := pose.Invert()
					if err != nil {
						t.Fatalf("%dx%d tilt=%v roll=%v dist=%v: %v", w, h, tilt, roll, dist, err)
					}
					px, py := float64(w-1), float64(h)/3
					fx, fy, ok1 := pose.Apply(px, py)
					bx, by, ok2 := inv.Apply(fx, fy)
					if !ok1 || !ok2 || math.Abs(bx-px) > 1e-6 || math.Abs(by-py) > 1e-6 {
						t.Fatalf("%dx%d tilt=%v roll=%v dist=%v: round-trip (%v,%v)→(%v,%v)",
							w, h, tilt, roll, dist, px, py, bx, by)
					}
				}
			}
		}
	}
}

// TestPoseHomographyKeystones: a 20° tilt must visibly move the frame's top
// corners (the keystone the registration exists to undo), while the center
// of projection stays put.
func TestPoseHomographyKeystones(t *testing.T) {
	const w, h = 192, 128
	pose := PoseHomography(w, h, 20, 0, 1)
	cx, cy := float64(w-1)/2, float64(h-1)/2
	gx, gy, ok := pose.Apply(cx, cy)
	if !ok || math.Abs(gx-cx) > 1e-9 || math.Abs(gy-cy) > 1e-9 {
		t.Fatalf("optical center moved: (%v,%v) → (%v,%v)", cx, cy, gx, gy)
	}
	tx, ty, ok := pose.Apply(0, 0)
	if !ok {
		t.Fatal("top-left corner on horizon")
	}
	if math.Abs(tx-0)+math.Abs(ty-0) < 2 {
		t.Fatalf("20° tilt barely moves the top-left corner: (%v,%v)", tx, ty)
	}
}

// TestPoseValidateBounds: the pose knobs must be range-checked like every
// other impair knob.
func TestPoseValidateBounds(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error, "" = valid
	}{
		{"pose ok", Config{TiltDeg: 20, RotateDeg: -5, Distance: 1.3, PoseJitterDeg: 1}, ""},
		{"distance unset", Config{TiltDeg: 20}, ""},
		{"tilt too steep", Config{TiltDeg: 71}, "TiltDeg"},
		{"tilt too steep negative", Config{TiltDeg: -80}, "TiltDeg"},
		{"roll out of range", Config{RotateDeg: 200}, "RotateDeg"},
		{"too close", Config{Distance: 0.3}, "Distance"},
		{"too far", Config{Distance: 5}, "Distance"},
		{"negative distance", Config{Distance: -1}, "Distance"},
		{"jitter negative", Config{PoseJitterDeg: -0.1}, "PoseJitterDeg"},
		{"jitter too large", Config{PoseJitterDeg: 6}, "PoseJitterDeg"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want mention of %q", c.name, err, c.want)
		}
	}
}

// TestPoseEnabledAndName: each pose knob alone activates exactly the
// camera-pose stage; the exact frontal sentinels (Distance 0 or 1) do not.
func TestPoseEnabledAndName(t *testing.T) {
	for i, c := range []Config{
		{TiltDeg: 10}, {RotateDeg: -3}, {Distance: 1.3}, {Distance: 0.5}, {PoseJitterDeg: 0.5},
	} {
		if !c.Enabled() {
			t.Errorf("config %d (%+v) reports disabled", i, c)
		}
		if names := New(c).Names(); len(names) != 1 || names[0] != "camera-pose" {
			t.Errorf("config %d: stage names %v, want [camera-pose]", i, New(c).Names())
		}
	}
	for i, c := range []Config{{}, {Distance: 1}, {Seed: 7}} {
		if c.Enabled() {
			t.Errorf("frontal config %d (%+v) reports enabled", i, c)
		}
	}
}

// TestApplyPoseDeterministicAndIndexed: the jittered pose stage is a pure
// function of (config, capture index) — worker identity and call order must
// not leak in.
func TestApplyPoseDeterministicAndIndexed(t *testing.T) {
	cfg := Config{Seed: 33, TiltDeg: 20, RotateDeg: 4, Distance: 1.2, PoseJitterDeg: 2}
	mk := func() *frame.Frame {
		f := frame.New(48, 32)
		for i := range f.Pix {
			f.Pix[i] = float32((i * 41) % 256)
		}
		return f
	}
	a, b := mk(), mk()
	s := New(cfg)
	s.ApplyFrame(a, 6, 0.1, 0.001)
	New(cfg).ApplyFrame(b, 6, 0.1, 0.001)
	if !a.Equal(b) {
		t.Error("same (config, index) produced different posed frames")
	}
	c := mk()
	s.ApplyFrame(c, 7, 0.1, 0.001)
	if a.Equal(c) {
		t.Error("different capture indices produced identical pose jitter")
	}
	// Out-of-order replay of index 6 must reproduce the first result.
	d := mk()
	s.ApplyFrame(d, 6, 0.1, 0.001)
	if !a.Equal(d) {
		t.Error("replaying an index after later captures changed the pose")
	}
}

// TestApplyPoseWarpsContent: a pure tilt moves edge content while the frame
// dimensions and the quantized value domain are preserved.
func TestApplyPoseWarpsContent(t *testing.T) {
	f := frame.New(64, 48)
	for i := range f.Pix {
		f.Pix[i] = float32((i * 29) % 256)
	}
	want := f.Clone()
	s := New(Config{TiltDeg: 25, Distance: 1.3})
	s.ApplyFrame(f, 0, 0.1, 0.001)
	if f.W != want.W || f.H != want.H {
		t.Fatalf("pose changed frame dimensions: %dx%d", f.W, f.H)
	}
	if f.Equal(want) {
		t.Fatal("25° tilt left the frame untouched")
	}
	for i, v := range f.Pix {
		if math.IsNaN(float64(v)) || v < 0 || v > 255 {
			t.Fatalf("pixel %d = %v outside the 8-bit domain", i, v)
		}
	}
}

// TestApplyPosePlanMatchesDirectWarp: a fixed pose warps through the
// memoized plan, which must give the capture the direct inverse warp gives
// it, bit for bit — on the first capture (which builds the plan), on later
// ones, after a change of capture size (which rebuilds it), and from
// concurrent captures sharing it.
func TestApplyPosePlanMatchesDirectWarp(t *testing.T) {
	cfg := Config{Seed: 9, TiltDeg: -25, RotateDeg: 7, Distance: 1.4}
	mk := func(w, h, k int) *frame.Frame {
		f := frame.New(w, h)
		for i := range f.Pix {
			f.Pix[i] = float32((i*37 + k*11) % 256)
		}
		return f
	}
	direct := func(f *frame.Frame) *frame.Frame {
		out := f.Clone()
		inv, err := PoseHomography(f.W, f.H, cfg.TiltDeg, cfg.RotateDeg, cfg.Distance).Invert()
		if err != nil {
			t.Fatal(err)
		}
		frame.WarpInto(f, out, inv)
		out.Quantize()
		return out
	}
	s := New(cfg)
	for k, dims := range [][2]int{{64, 48}, {64, 48}, {40, 30}, {64, 48}} {
		f := mk(dims[0], dims[1], k)
		want := direct(f)
		s.ApplyFrame(f, k, 0.1, 0.001)
		if !f.Equal(want) {
			t.Errorf("capture %d (%dx%d): planned pose differs from the direct warp", k, dims[0], dims[1])
		}
	}
	fresh := New(cfg)
	const n = 8
	got := make([]*frame.Frame, n)
	parallel.For(n, n, func(k int) {
		got[k] = mk(64, 48, k)
		fresh.ApplyFrame(got[k], k, 0.1, 0.001)
	})
	for k, f := range got {
		if !f.Equal(direct(mk(64, 48, k))) {
			t.Errorf("concurrent capture %d: planned pose differs from the direct warp", k)
		}
	}
}

// TestPosePlanSharedAcrossStacks: the fixed-pose warp plan is memoized for
// the package, not per Stack. Two Stacks built from one config — as two
// channel.Simulate calls build them — warp a capture bit for bit alike, and
// the second gets the first's plan instead of building one. Another capture
// size, tilt, roll or distance builds its own plan, and coming back to the
// first configuration builds again. Captures of several Stacks sharing one
// plan from eight goroutines each equal a lone Stack's (run it under -race).
func TestPosePlanSharedAcrossStacks(t *testing.T) {
	const w, h = 64, 48
	cfg := Config{Seed: 3, TiltDeg: 30}
	same := func(a, b *frame.Frame) bool {
		for i := range a.Pix {
			if math.Float32bits(a.Pix[i]) != math.Float32bits(b.Pix[i]) {
				return false
			}
		}
		return true
	}
	first, second := New(cfg), New(cfg)
	a, b := poseCapture(w, h, true, 1), poseCapture(w, h, true, 1)
	first.ApplyFrame(a, 0, 0.1, 0.001)
	plan := first.posePlanFor(w, h)
	second.ApplyFrame(b, 0, 0.1, 0.001)
	if !same(a, b) {
		t.Error("two Stacks of one config warp a capture differently")
	}
	if second.posePlanFor(w, h) != plan {
		t.Error("the second Stack of one config built its own plan")
	}
	for _, c := range []struct {
		name string
		cfg  Config
		w, h int
	}{
		{"size", cfg, 40, 30},
		{"tilt", Config{Seed: 3, TiltDeg: 31}, w, h},
		{"roll", Config{Seed: 3, TiltDeg: 30, RotateDeg: 2}, w, h},
		{"distance", Config{Seed: 3, TiltDeg: 30, Distance: 1.5}, w, h},
	} {
		if got := New(c.cfg).posePlanFor(c.w, c.h); got == plan || !got.Fits(c.w, c.h, c.w, c.h) {
			t.Errorf("another %s reused the plan, or got one that does not fit %dx%d", c.name, c.w, c.h)
		}
	}
	if first.posePlanFor(w, h) == plan {
		t.Error("the first configuration's plan survived four others in a one-entry memo")
	}
	want := make([]*frame.Frame, 8)
	for k := range want {
		want[k] = poseCapture(w, h, true, int64(k))
		New(cfg).ApplyFrame(want[k], k, 0.1, 0.001)
	}
	stacks := []*Stack{New(cfg), New(cfg), New(cfg)}
	got := make([]*frame.Frame, len(want))
	parallel.For(len(got), len(got), func(k int) {
		got[k] = poseCapture(w, h, true, int64(k))
		stacks[k%len(stacks)].ApplyFrame(got[k], k, 0.1, 0.001)
	})
	for k := range got {
		if !same(got[k], want[k]) {
			t.Errorf("concurrent capture %d differs from a lone Stack's", k)
		}
	}
}

// poseCapture returns a seeded w×h capture holding both 8-bit extremes:
// a band of code 0 along the top, a band of 255 down the left, and random
// codes elsewhere, or, when not integral, values off the integer lattice
// and outside [0, 255] (the camera never delivers those; the stage must
// still warp them as a copy would).
func poseCapture(w, h int, integral bool, seed int64) *frame.Frame {
	rng := rand.New(rand.NewSource(seed))
	f := frame.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := float32(rng.Intn(256))
			switch {
			case y < h/6:
				v = 0
			case x < w/6:
				v = 255
			}
			if !integral {
				v += float32(float64(rng.Float64()*1.5) - 0.6)
			}
			f.Set(x, y, v)
		}
	}
	return f
}

// refPose is the camera-pose stage as a copy and a separate warp: the
// capture's copy warped through the inverse of the capture's pose into a
// new frame, unrounded.
func refPose(s *Stack, f *frame.Frame, index int) *frame.Frame {
	tilt, roll := s.cfg.TiltDeg, s.cfg.RotateDeg
	if s.cfg.PoseJitterDeg > 0 {
		tilt, roll = s.jitteredPose(index)
	}
	out := frame.New(f.W, f.H)
	frame.WarpInto(f.Clone(), out, poseInverse(f.W, f.H, tilt, roll, s.cfg.Distance))
	return out
}

// TestPoseStageMatchesReference pins the in-place, self-rounding pose
// stage: ApplyFrame of a posed capture equals copy → WarpInto through the
// pose's inverse → Quantize by Float32bits, for fixed and jittered poses
// with tilt, roll and distance, on captures holding codes 0 and 255 whose
// warps read the overscan, on non-integral captures (the float fallback,
// which must warp from a copy), and at the benchmark's 1280×720. With a
// later pixel stage (gain drift) configured the warp must not round: the
// reference then runs the gain stage alone on the unrounded warp. The test
// requires its cases to hold half-way samples, overscan pixels and both
// extreme codes, so rounding ties down, folding the rounding into a stack
// with a later stage, or warping a float capture over itself all fail it.
func TestPoseStageMatchesReference(t *testing.T) {
	gain := Config{GainAmp: 0.2, GainHz: 3}
	withGain := func(c Config) Config {
		c.GainAmp, c.GainHz = gain.GainAmp, gain.GainHz
		return c
	}
	cases := []struct {
		name string
		cfg  Config
		w, h int
	}{
		{"tilt30-1280x720", Config{Seed: 1, TiltDeg: 30}, 1280, 720},
		{"tilt-roll-far", Config{Seed: 2, TiltDeg: -25, RotateDeg: 7, Distance: 1.4}, 97, 61},
		{"half-size", Config{Seed: 3, Distance: 2}, 64, 48},
		{"near-rolled", Config{Seed: 4, TiltDeg: 12, RotateDeg: -40, Distance: 0.6}, 80, 45},
		{"jitter", Config{Seed: 5, TiltDeg: 20, RotateDeg: 4, Distance: 1.2, PoseJitterDeg: 2}, 96, 54},
		{"jitter-far", Config{Seed: 6, Distance: 2.5, PoseJitterDeg: 5}, 64, 48},
		{"tilt30+gain", withGain(Config{Seed: 7, TiltDeg: 30}), 96, 54},
		{"jitter+gain", withGain(Config{Seed: 8, TiltDeg: -15, PoseJitterDeg: 3}), 64, 48},
	}
	var ties, overscan, zeros, fulls int
	for _, c := range cases {
		s := New(c.cfg)
		for _, integral := range []bool{true, false} {
			for index := 0; index < 3; index++ {
				name := fmt.Sprintf("%s/integral=%v/capture %d", c.name, integral, index)
				const tt, exposure = 0.37, 0.001
				f := poseCapture(c.w, c.h, integral, int64(index*7+c.w))
				want := refPose(s, f, index)
				if c.cfg.laterPixelStage() {
					New(gain).ApplyFrame(want, index, tt, exposure)
				} else {
					if integral {
						for _, v := range want.Pix {
							if v-float32(math.Floor(float64(v))) == 0.5 {
								ties++
							}
						}
					}
					want.Quantize()
				}
				s.ApplyFrame(f, index, tt, exposure)
				for i := range want.Pix {
					if math.Float32bits(f.Pix[i]) != math.Float32bits(want.Pix[i]) {
						t.Fatalf("%s: pixel %d = %v, copy+warp+quantize %v", name, i, f.Pix[i], want.Pix[i])
					}
					switch want.Pix[i] {
					case 0:
						zeros++
					case 255:
						fulls++
					}
				}
				lit := refPose(s, frame.NewFilled(c.w, c.h, 255), index)
				for _, v := range lit.Pix {
					if v == 0 {
						overscan++
					}
				}
			}
		}
	}
	if ties == 0 || overscan == 0 || zeros == 0 || fulls == 0 {
		t.Errorf("cases lost their edge content: %d half-way samples, %d overscan pixels, %d zeros, %d codes 255 (each must be > 0)",
			ties, overscan, zeros, fulls)
	}
}
