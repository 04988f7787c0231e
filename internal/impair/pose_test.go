package impair

import (
	"math"
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
// Stack's plan, which must give the capture the direct inverse warp gives
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
