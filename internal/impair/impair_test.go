package impair

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"inframe/internal/detrng"
	"inframe/internal/frame"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error, "" = valid
	}{
		{"zero", Config{}, ""},
		{"nil-ok", Config{}, ""},
		{"drift", Config{ClockDriftPPM: 200}, ""},
		{"negative jitter", Config{StartJitter: -1e-3}, "StartJitter"},
		{"drop too high", Config{DropRate: 1}, "DropRate"},
		{"dup negative", Config{DupRate: -0.1}, "DupRate"},
		{"flicker without hz", Config{FlickerAmp: 5}, "FlickerHz"},
		{"flicker ok", Config{FlickerAmp: 5, FlickerHz: 100}, ""},
		{"gain without hz", Config{GainAmp: 0.1}, "GainHz"},
		{"gain too high", Config{GainAmp: 1, GainHz: 0.5}, "GainAmp"},
		{"burst without sigma", Config{BurstRate: 0.2}, "BurstSigma"},
		{"burst ok", Config{BurstRate: 0.2, BurstSigma: 10}, ""},
		{"blur negative", Config{MotionBlurLen: -1}, "MotionBlurLen"},
		{"occlude width only", Config{OccludeW: 0.2}, "OccludeH"},
		{"occlude out of range", Config{OccludeW: 0.2, OccludeH: 1.5}, "fractions"},
		{"occlude level", Config{OccludeW: 0.2, OccludeH: 0.2, OccludeLevel: 300}, "OccludeLevel"},
		{"occlude ok", Config{OccludeW: 0.2, OccludeH: 0.2}, ""},
		{"drift at bound", Config{ClockDriftPPM: -MaxClockDriftPPM}, ""},
		{"drift past bound", Config{ClockDriftPPM: 10001}, "ClockDriftPPM"},
		{"drift near -1e6", Config{ClockDriftPPM: -999999}, "ClockDriftPPM"},
		{"drift below -1e6", Config{ClockDriftPPM: -2e6}, "ClockDriftPPM"},
		{"drift NaN", Config{ClockDriftPPM: math.NaN()}, "ClockDriftPPM"},
		{"drift +Inf", Config{ClockDriftPPM: math.Inf(1)}, "ClockDriftPPM"},
		{"drift -Inf", Config{ClockDriftPPM: math.Inf(-1)}, "ClockDriftPPM"},
		{"jitter NaN", Config{StartJitter: math.NaN()}, "StartJitter"},
		{"drop NaN", Config{DropRate: math.NaN()}, "DropRate"},
		{"dup NaN", Config{DupRate: math.NaN()}, "DupRate"},
		{"ramp +Inf", Config{AmbientRamp: math.Inf(1)}, "AmbientRamp"},
		{"flicker hz NaN", Config{FlickerAmp: 5, FlickerHz: math.NaN()}, "FlickerHz"},
		{"gain hz -Inf", Config{GainAmp: 0.1, GainHz: math.Inf(-1)}, "GainHz"},
		{"burst sigma NaN", Config{BurstRate: 0.2, BurstSigma: math.NaN()}, "BurstSigma"},
		{"burst sigma +Inf", Config{BurstRate: 0.2, BurstSigma: math.Inf(1)}, "BurstSigma"},
		{"occlude x NaN", Config{OccludeX: math.NaN(), OccludeW: 0.2, OccludeH: 0.2}, "OccludeX"},
		{"occlude level NaN", Config{OccludeW: 0.2, OccludeH: 0.2, OccludeLevel: math.NaN()}, "OccludeLevel"},
		{"tilt NaN", Config{TiltDeg: math.NaN()}, "TiltDeg"},
		{"rotate +Inf", Config{RotateDeg: math.Inf(1)}, "RotateDeg"},
		{"distance NaN", Config{Distance: math.NaN()}, "Distance"},
		{"pose jitter NaN", Config{PoseJitterDeg: math.NaN()}, "PoseJitterDeg"},
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
	var nilCfg *Config
	if err := nilCfg.Validate(); err != nil {
		t.Errorf("nil config: unexpected error %v", err)
	}
}

func TestEnabled(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Enabled() {
		t.Error("nil config reports enabled")
	}
	if (&Config{Seed: 42}).Enabled() {
		t.Error("seed-only config reports enabled")
	}
	actives := []Config{
		{ClockDriftPPM: 100},
		{ClockDriftPPM: -100},
		{StartJitter: 1e-4},
		{DropRate: 0.1},
		{DupRate: 0.1},
		{AmbientRamp: -3},
		{FlickerAmp: 2, FlickerHz: 100},
		{GainAmp: 0.05, GainHz: 0.7},
		{BurstRate: 0.1, BurstSigma: 8},
		{MotionBlurLen: 2},
		{OccludeW: 0.1, OccludeH: 0.1},
	}
	for i, c := range actives {
		if !c.Enabled() {
			t.Errorf("config %d (%+v) reports disabled", i, c)
		}
		if len(New(c).Names()) != 1 {
			t.Errorf("config %d: stage names %v, want exactly one", i, New(c).Names())
		}
	}
}

func TestPeriodDrift(t *testing.T) {
	s := New(Config{ClockDriftPPM: 500})
	base := 1.0 / 30
	got := s.Period(base)
	want := base * 1.0005
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Period = %v, want %v", got, want)
	}
	if p := New(Config{}).Period(base); math.Abs(p-base) > 0 {
		t.Errorf("zero drift changed the period: %v != %v", p, base)
	}
}

func TestCaptureTimeJitterBoundedAndDeterministic(t *testing.T) {
	const jitter = 2e-4
	s := New(Config{Seed: 11, StartJitter: jitter})
	period := 1.0 / 30
	for i := 0; i < 50; i++ {
		nominal := 0.01 + float64(i)*period
		got := s.CaptureTime(i, 0.01, period)
		if math.Abs(got-nominal) > jitter {
			t.Fatalf("capture %d: time %v is %v off nominal, want within %v",
				i, got, got-nominal, jitter)
		}
		if again := s.CaptureTime(i, 0.01, period); math.Abs(again-got) > 0 {
			t.Fatalf("capture %d: jitter not deterministic: %v vs %v", i, got, again)
		}
	}
	// Different seeds must jitter differently somewhere.
	other := New(Config{Seed: 12, StartJitter: jitter})
	same := true
	for i := 0; i < 50; i++ {
		if math.Abs(s.CaptureTime(i, 0, period)-other.CaptureTime(i, 0, period)) > 0 {
			same = false
			break
		}
	}
	if same {
		t.Error("two seeds produced identical jitter sequences")
	}
}

// TestStageIndependence checks the determinism contract: enabling one stage
// must not shift another stage's random stream. The drop decisions with and
// without duplication enabled must be identical.
func TestStageIndependence(t *testing.T) {
	pool := frame.NewPool()
	mk := func() ([]*frame.Frame, []float64) {
		caps := make([]*frame.Frame, 40)
		times := make([]float64, 40)
		for i := range caps {
			caps[i] = frame.NewFilled(8, 6, float32(i))
			times[i] = float64(i)
		}
		return caps, times
	}
	dropOnly := New(Config{Seed: 5, DropRate: 0.3})
	caps, times := mk()
	aCaps, _ := dropOnly.ApplySequence(caps, times, 1, pool)
	surviveA := make(map[float32]bool)
	for _, f := range aCaps {
		surviveA[f.Pix[0]] = true
	}

	both := New(Config{Seed: 5, DropRate: 0.3, DupRate: 0.4})
	caps, times = mk()
	bCaps, _ := both.ApplySequence(caps, times, 1, pool)
	surviveB := make(map[float32]bool)
	for _, f := range bCaps {
		surviveB[f.Pix[0]] = true
	}
	if !reflect.DeepEqual(surviveA, surviveB) {
		t.Errorf("enabling duplication changed the drop decisions: %v vs %v", surviveA, surviveB)
	}
}

func TestApplySequenceDropAndDup(t *testing.T) {
	pool := frame.NewPool()
	const n = 200
	caps := make([]*frame.Frame, n)
	times := make([]float64, n)
	for i := range caps {
		caps[i] = frame.NewFilled(8, 6, float32(i%200))
		times[i] = float64(i) * 0.1
	}
	s := New(Config{Seed: 3, DropRate: 0.25, DupRate: 0.25})
	outCaps, outTimes := s.ApplySequence(caps, times, 0.1, pool)
	if len(outCaps) != len(outTimes) {
		t.Fatalf("caps/times length mismatch: %d vs %d", len(outCaps), len(outTimes))
	}
	if len(outCaps) == n {
		t.Fatal("no capture was dropped or duplicated at 25% rates over 200 captures")
	}
	// Every dropped frame went back to the pool; every duplicate came out
	// of it (possibly reusing a dropped buffer). Replay the per-index
	// decisions from the stage streams and demand the stats balance.
	st := pool.Stats()
	dropped, dups := 0, 0
	for i := 0; i < n; i++ {
		if s.rng(detrng.ImpairDrop, i).Float64() < 0.25 {
			dropped++
			continue
		}
		if s.rng(detrng.ImpairDup, i).Float64() < 0.25 {
			dups++
		}
	}
	if dropped == 0 || dups == 0 {
		t.Fatalf("expected both drops and dups, got dropped=%d dups=%d", dropped, dups)
	}
	if len(outCaps) != n-dropped+dups {
		t.Fatalf("survivors = %d, want %d - %d dropped + %d dups", len(outCaps), n, dropped, dups)
	}
	if st.Puts != uint64(dropped) {
		t.Errorf("pool Puts = %d, want one per dropped capture (%d)", st.Puts, dropped)
	}
	if st.Gets != uint64(dups) {
		t.Errorf("pool Gets = %d, want one per duplicate (%d)", st.Gets, dups)
	}
	// Duplicates are distinct buffers with identical pixels and a
	// one-period-later timestamp.
	for i := 1; i < len(outCaps); i++ {
		if outCaps[i] == outCaps[i-1] {
			t.Fatalf("capture %d aliases its predecessor", i)
		}
		if outCaps[i].Equal(outCaps[i-1]) && math.Abs(outTimes[i]-(outTimes[i-1]+0.1)) > 1e-12 {
			t.Fatalf("duplicate at %d has time %v, want %v", i, outTimes[i], outTimes[i-1]+0.1)
		}
	}
	// Deterministic replay: a fresh identical run makes identical choices.
	caps2 := make([]*frame.Frame, n)
	for i := range caps2 {
		caps2[i] = frame.NewFilled(8, 6, float32(i%200))
	}
	rCaps, rTimes := New(s.Config()).ApplySequence(caps2, append([]float64(nil), times...), 0.1, frame.NewPool())
	if len(rCaps) != len(outCaps) || !reflect.DeepEqual(rTimes, outTimes) {
		t.Error("replayed sequence decisions diverge")
	}
}

func TestApplySequencePassthrough(t *testing.T) {
	s := New(Config{Seed: 9, AmbientRamp: 3}) // no sequence stages active
	caps := []*frame.Frame{frame.NewFilled(4, 4, 1)}
	times := []float64{0.5}
	outCaps, outTimes := s.ApplySequence(caps, times, 0.1, nil)
	if &outCaps[0] != &caps[0] || &outTimes[0] != &times[0] {
		t.Error("passthrough rebuilt the sequence")
	}
}

func TestApplyFrameDeterministicAndIndexed(t *testing.T) {
	cfg := Config{
		Seed: 21, AmbientRamp: 4, FlickerAmp: 6, FlickerHz: 100,
		GainAmp: 0.1, GainHz: 0.5, BurstRate: 1, BurstSigma: 5,
		MotionBlurLen: 1, OccludeX: 0.5, OccludeY: 0.5, OccludeW: 0.3, OccludeH: 0.3,
	}
	mk := func() *frame.Frame {
		f := frame.New(32, 24)
		for i := range f.Pix {
			f.Pix[i] = float32((i * 37) % 256)
		}
		return f
	}
	a, b := mk(), mk()
	s := New(cfg)
	s.ApplyFrame(a, 4, 0.2, 0.001)
	New(cfg).ApplyFrame(b, 4, 0.2, 0.001)
	if !a.Equal(b) {
		t.Error("same (config, index, time) produced different frames")
	}
	c := mk()
	s.ApplyFrame(c, 5, 0.2, 0.001) // different index: different burst noise
	if a.Equal(c) {
		t.Error("different capture indices produced identical burst noise")
	}
	// Quantized output: corruption happens in the camera's 8-bit domain.
	for i, v := range a.Pix {
		if v < 0 || v > 255 || float32(math.Round(float64(v))) != v {
			t.Fatalf("pixel %d = %v not 8-bit quantized", i, v)
		}
	}
}

func TestApplyFrameDisabledIsNoop(t *testing.T) {
	f := frame.New(8, 8)
	for i := range f.Pix {
		f.Pix[i] = float32(i) + 0.25 // deliberately unquantized
	}
	want := f.Clone()
	New(Config{Seed: 99}).ApplyFrame(f, 0, 0.1, 0.001)
	if !f.Equal(want) {
		t.Error("disabled stack modified the frame (or re-quantized it)")
	}
}

func TestOcclusionRect(t *testing.T) {
	f := frame.NewFilled(40, 20, 200)
	s := New(Config{OccludeX: 0.25, OccludeY: 0.5, OccludeW: 0.5, OccludeH: 0.5, OccludeLevel: 10})
	s.ApplyFrame(f, 0, 0, 0.001)
	// Rectangle: x in [10,30), y in [10,20).
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			v := f.At(x, y)
			inside := x >= 10 && x < 30 && y >= 10
			if inside && math.Abs(float64(v)-10) > 0 {
				t.Fatalf("occluded pixel (%d,%d) = %v, want 10", x, y, v)
			}
			if !inside && math.Abs(float64(v)-200) > 0 {
				t.Fatalf("clear pixel (%d,%d) = %v, want 200", x, y, v)
			}
		}
	}
}

func TestFlickerIntegral(t *testing.T) {
	s := New(Config{FlickerAmp: 10, FlickerHz: 100})
	// Exposure spanning exactly one flicker cycle integrates to zero.
	if lvl := s.flickerLevel(0.123, 0.01); math.Abs(lvl) > 1e-9 {
		t.Errorf("full-cycle exposure flicker = %v, want ~0", lvl)
	}
	// A very short exposure approaches the instantaneous sinusoid.
	t0 := 0.0013
	inst := 10 * math.Sin(2*math.Pi*100*t0)
	if lvl := s.flickerLevel(t0, 1e-7); math.Abs(lvl-inst) > 1e-2 {
		t.Errorf("short-exposure flicker = %v, want ~%v", lvl, inst)
	}
}

func TestMotionBlurPreservesMeanAndSpreads(t *testing.T) {
	f := frame.New(33, 5)
	f.Set(16, 2, 255) // impulse
	before := f.Mean()
	motionBlur(f, 3)
	if math.Abs(f.Mean()-before) > 1e-4 {
		t.Errorf("motion blur changed the mean: %v -> %v", before, f.Mean())
	}
	if f.At(16, 2) >= 255 {
		t.Error("impulse not spread")
	}
	if f.At(13, 2) <= 0 || f.At(19, 2) <= 0 {
		t.Error("impulse energy did not reach the kernel extent")
	}
	if f.At(12, 2) > 0 || f.At(20, 2) > 0 || f.At(16, 1) > 0 {
		t.Error("blur leaked outside the horizontal kernel")
	}
}
