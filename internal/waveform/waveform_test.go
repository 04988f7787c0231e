package waveform

import (
	"math"
	"testing"
	"testing/quick"
)

func TestShapeEndpoints(t *testing.T) {
	for _, s := range []Shape{SqrtRaisedCosine, Linear, Stair} {
		if got := s.Down(0); got != 1 {
			t.Errorf("%v.Down(0) = %v, want 1", s, got)
		}
		if got := s.Down(1); math.Abs(got) > 1e-12 {
			t.Errorf("%v.Down(1) = %v, want 0", s, got)
		}
		if got := s.Up(0); math.Abs(got) > 1e-12 {
			t.Errorf("%v.Up(0) = %v, want 0", s, got)
		}
		if got := s.Up(1); math.Abs(got-1) > 1e-12 {
			t.Errorf("%v.Up(1) = %v, want 1", s, got)
		}
	}
}

func TestShapeMonotone(t *testing.T) {
	for _, s := range []Shape{SqrtRaisedCosine, Linear, Stair} {
		prev := s.Down(0)
		prevUp := s.Up(0)
		for i := 1; i <= 100; i++ {
			u := float64(i) / 100
			if d := s.Down(u); d > prev+1e-12 {
				t.Fatalf("%v.Down not non-increasing at u=%v", s, u)
			} else {
				prev = d
			}
			if up := s.Up(u); up < prevUp-1e-12 {
				t.Fatalf("%v.Up not non-decreasing at u=%v", s, u)
			} else {
				prevUp = up
			}
		}
	}
}

func TestShapeClampsInput(t *testing.T) {
	s := SqrtRaisedCosine
	if s.Down(-3) != 1 || math.Abs(s.Down(7)) > 1e-12 {
		t.Fatal("Down did not clamp input to [0,1]")
	}
}

// TestSRRCPowerComplementary: cos² + sin² = 1, the defining property that
// keeps total modulation power constant through a 1→0 / 0→1 crossfade.
func TestSRRCPowerComplementary(t *testing.T) {
	prop := func(u float64) bool {
		u = math.Abs(math.Mod(u, 1))
		d := SqrtRaisedCosine.Down(u)
		up := SqrtRaisedCosine.Up(u)
		return math.Abs(float64(d*d)+float64(up*up)-1) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBetween(t *testing.T) {
	s := Linear
	if got := s.Between(20, 20, 0.3); got != 20 {
		t.Fatalf("Between equal levels = %v, want 20", got)
	}
	if got := s.Between(0, 10, 0.5); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Between(0,10,0.5) = %v, want 5", got)
	}
	if got := s.Between(10, 0, 0.5); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Between(10,0,0.5) = %v, want 5", got)
	}
}

func TestStringNames(t *testing.T) {
	if SqrtRaisedCosine.String() != "sqrt-raised-cosine" ||
		Linear.String() != "linear" || Stair.String() != "stair" {
		t.Fatal("unexpected Shape names")
	}
	if Shape(9).String() != "Shape(9)" {
		t.Fatal("unknown shape String")
	}
}

func TestEnvelopeSteadyBit(t *testing.T) {
	env := Envelope(SqrtRaisedCosine, []float64{20, 20, 20}, 10)
	if len(env) != 30 {
		t.Fatalf("len = %d, want 30", len(env))
	}
	for i, v := range env {
		if v != 20 {
			t.Fatalf("steady envelope sample %d = %v, want 20", i, v)
		}
	}
}

func TestEnvelopeTransition(t *testing.T) {
	tau := 10
	env := Envelope(SqrtRaisedCosine, []float64{20, 0}, tau)
	// First half of period 0 steady at 20.
	for i := 0; i < tau/2; i++ {
		if env[i] != 20 {
			t.Fatalf("sample %d = %v, want steady 20", i, env[i])
		}
	}
	// Second half descends monotonically to ~0.
	for i := tau / 2; i < tau-1; i++ {
		if env[i+1] > env[i]+1e-12 {
			t.Fatalf("transition not monotone at %d: %v -> %v", i, env[i], env[i+1])
		}
	}
	if math.Abs(env[tau-1]) > 1e-9 {
		t.Fatalf("end of transition = %v, want 0", env[tau-1])
	}
	// Period 1 entirely at 0.
	for i := tau; i < 2*tau; i++ {
		if env[i] != 0 {
			t.Fatalf("sample %d = %v, want 0", i, env[i])
		}
	}
}

func TestEnvelopeUpTransition(t *testing.T) {
	tau := 8
	env := Envelope(Linear, []float64{0, 16}, tau)
	want := []float64{0, 0, 0, 0, 4, 8, 12, 16}
	for i, w := range want {
		if math.Abs(env[i]-w) > 1e-9 {
			t.Fatalf("sample %d = %v, want %v", i, env[i], w)
		}
	}
}

func TestEnvelopePanicsOnOddTau(t *testing.T) {
	for _, tau := range []int{0, 1, 3, -2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Envelope(tau=%d) did not panic", tau)
				}
			}()
			Envelope(Linear, []float64{1}, tau)
		}()
	}
}

func TestModulateAlternates(t *testing.T) {
	env := []float64{5, 5, 5, 5}
	m := Modulate(env, 100)
	want := []float64{105, 95, 105, 95}
	for i, w := range want {
		if m[i] != w {
			t.Fatalf("Modulate[%d] = %v, want %v", i, m[i], w)
		}
	}
}

func TestLowPassDCGain(t *testing.T) {
	lp := NewLowPass(50, 120)
	var y float64
	for i := 0; i < 500; i++ {
		y = lp.Step(10)
	}
	if math.Abs(y-10) > 1e-6 {
		t.Fatalf("DC gain: converged to %v, want 10", y)
	}
}

func TestLowPassAttenuatesAlternation(t *testing.T) {
	// A 60 Hz alternation at 120 Hz sampling through a 40 Hz filter must be
	// strongly attenuated around its mean — the flicker-fusion analogue.
	lp := NewLowPass(40, 120)
	xs := Modulate(make([]float64, 480), 0)
	for i := range xs {
		if i%2 == 0 {
			xs[i] = 20
		} else {
			xs[i] = -20
		}
	}
	ys := lp.Filter(xs)
	r := Ripple(ys, 120)
	if r >= 30 {
		t.Fatalf("alternation ripple after LPF = %v, want < 30 (input p-p 40)", r)
	}
	if r == 0 {
		t.Fatal("ripple exactly zero is implausible for a first-order filter")
	}
}

func TestLowPassPanicsOnBadParams(t *testing.T) {
	for _, p := range [][2]float64{{0, 120}, {50, 0}, {70, 120}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLowPass(%v,%v) did not panic", p[0], p[1])
				}
			}()
			NewLowPass(p[0], p[1])
		}()
	}
}

func TestCascadeSteeperThanSingle(t *testing.T) {
	xs := make([]float64, 480)
	for i := range xs {
		if i%2 == 0 {
			xs[i] = 1
		} else {
			xs[i] = -1
		}
	}
	single := NewLowPass(30, 120).Filter(xs)
	casc := NewCascade(3, 30, 120).Filter(xs)
	if Ripple(casc, 120) >= Ripple(single, 120) {
		t.Fatalf("cascade ripple %v not below single-pole ripple %v",
			Ripple(casc, 120), Ripple(single, 120))
	}
}

func TestCascadePanicsOnZeroOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCascade(0,...) did not panic")
		}
	}()
	NewCascade(0, 30, 120)
}

func TestRipple(t *testing.T) {
	if r := Ripple([]float64{0, 10, 3, 7}, 1); r != 7 {
		t.Fatalf("Ripple = %v, want 7", r)
	}
	if r := Ripple([]float64{1, 2}, 5); r != 0 {
		t.Fatalf("Ripple with skip beyond length = %v, want 0", r)
	}
}

// TestSmoothingReducesLPFRipple reproduces the qualitative claim behind
// Fig. 5: a smoothed bit transition produces a more stable low-pass output
// than an abrupt (stair) transition.
func TestSmoothingReducesLPFRipple(t *testing.T) {
	levels := []float64{20, 0, 20, 0, 20, 0, 20, 0}
	tau := 12
	lp := NewLowPass(45, 120)
	smooth := lp.Filter(Modulate(Envelope(SqrtRaisedCosine, levels, tau), 127))
	abrupt := lp.Filter(Modulate(Envelope(Stair, levels, tau), 127))
	rs := Ripple(smooth, tau)
	ra := Ripple(abrupt, tau)
	if rs >= ra {
		t.Fatalf("smooth ripple %v not below abrupt ripple %v", rs, ra)
	}
}
