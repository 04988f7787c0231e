package hvs

import (
	"math"
	"testing"

	"inframe/internal/display"
	"inframe/internal/frame"
	"inframe/internal/waveform"
)

// alternation builds a linear-light waveform alternating base±amp at half
// the sample rate (the complementary-frame pattern at 1 sample per refresh),
// oversampled by repeating each value rep times.
func alternation(base, amp float64, frames, rep int) []float64 {
	out := make([]float64, 0, frames*rep)
	for i := 0; i < frames; i++ {
		v := base + amp
		if i%2 == 1 {
			v = base - amp
		}
		for j := 0; j < rep; j++ {
			out = append(out, v)
		}
	}
	return out
}

func TestDefaultObserverValid(t *testing.T) {
	if err := DefaultObserver().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadObservers(t *testing.T) {
	mods := []func(*Observer){
		func(o *Observer) { o.CFFBase = 0 },
		func(o *Observer) { o.CFFSlope = -1 },
		func(o *Observer) { o.PeakLuminance = 0 },
		func(o *Observer) { o.Threshold = 0 },
		func(o *Observer) { o.Sensitivity = 0 },
		func(o *Observer) { o.PixelsPerDegree = 0 },
	}
	for i, m := range mods {
		o := DefaultObserver()
		m(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("modification %d validated", i)
		}
	}
}

func TestCFFFerryPorter(t *testing.T) {
	o := DefaultObserver()
	// Monotone in luminance.
	if o.CFF(10) >= o.CFF(100) {
		t.Fatal("CFF not increasing with luminance")
	}
	// Typical office luminance range lands in the paper's 40-50 Hz window.
	cff := o.CFF(60)
	if cff < 40 || cff > 55 {
		t.Fatalf("CFF(60 cd/m²) = %v, want in [40,55]", cff)
	}
	// Floor applied at tiny luminance.
	if o.CFF(1e-9) < 10 {
		t.Fatal("CFF floor violated")
	}
}

// Test60HzFusesBelowCFF: a 60 Hz complementary alternation at moderate
// amplitude must fuse (score ≤ 1), while the same pattern at 30 Hz — the
// naive designs' rate — must be clearly visible.
func TestFusionVersus30Hz(t *testing.T) {
	o := DefaultObserver()
	fs := 480.0
	lum := 150.0
	amp := 40.0
	// 60 Hz: one sign flip every display frame at 120 Hz (4 samples each).
	w60 := alternation(lum, amp, 240, 4)
	// 30 Hz: sign flips every two display frames.
	w30 := make([]float64, 0, 960)
	for i := 0; i < 120; i++ {
		v := lum + amp
		if i%2 == 1 {
			v = lum - amp
		}
		for j := 0; j < 8; j++ {
			w30 = append(w30, v)
		}
	}
	s60 := o.Score(o.FlickerAmplitude(w60, fs))
	s30 := o.Score(o.FlickerAmplitude(w30, fs))
	if s60 > 1 {
		t.Fatalf("60 Hz alternation score = %v, want <= 1 (fused)", s60)
	}
	if s30 < 2 {
		t.Fatalf("30 Hz alternation score = %v, want >= 2 (visible)", s30)
	}
	if s30 <= s60 {
		t.Fatal("30 Hz must be more visible than 60 Hz")
	}
}

// TestBrighterFlickersMore reproduces the Fig. 6 (left) trend: the same
// drive-level amplitude flickers more on brighter content, because the
// luminance modulation grows with the gamma slope and the CFF rises.
func TestBrighterFlickersMore(t *testing.T) {
	o := DefaultObserver()
	fs := 480.0
	gamma := 2.2
	toLum := func(v float64) float64 { return 255 * math.Pow(v/255, gamma) }
	score := func(drive, delta float64) float64 {
		hi := toLum(drive + delta)
		lo := toLum(drive - delta)
		base := float64((hi + lo) / 2)
		w := alternation(base, float64((hi-lo)/2), 240, 4)
		return o.Score(o.FlickerAmplitude(w, fs))
	}
	prev := -1.0
	for _, b := range []float64{60, 100, 140, 180} {
		s := score(b, 50)
		if s < prev {
			t.Fatalf("score decreased with brightness at %v: %v < %v", b, s, prev)
		}
		prev = s
	}
	// Larger amplitude flickers more at fixed brightness.
	if score(180, 50) <= score(180, 20) {
		t.Fatal("delta=50 not worse than delta=20")
	}
}

func TestFlickerAmplitudeIgnoresSlowContent(t *testing.T) {
	o := DefaultObserver()
	fs := 480.0
	// A slow 2 Hz luminance swell (legitimate video content) must not read
	// as flicker.
	n := 960
	w := make([]float64, n)
	for i := range w {
		w[i] = 120 + float64(60*math.Sin(2*math.Pi*2*float64(i)/fs))
	}
	amp := o.FlickerAmplitude(w, fs)
	if s := o.Score(amp); s > 0.5 {
		t.Fatalf("slow content scored %v, want <= 0.5", s)
	}
}

func TestFlickerAmplitudeShortInput(t *testing.T) {
	o := DefaultObserver()
	if a := o.FlickerAmplitude([]float64{1, 2}, 480); a != 0 {
		t.Fatalf("short input amplitude = %v, want 0", a)
	}
}

func TestScoreMapping(t *testing.T) {
	o := DefaultObserver()
	if s := o.Score(0); s != 0 {
		t.Fatalf("Score(0) = %v", s)
	}
	// Threshold amplitude maps to 1 ("almost unnoticeable").
	if s := o.Score(o.Threshold); math.Abs(s-1) > 1e-9 {
		t.Fatalf("Score(threshold) = %v, want 1", s)
	}
	if s := o.Score(1e9); s < 3.9 {
		t.Fatalf("Score(huge) = %v, want ~4", s)
	}
	// Monotone.
	if o.Score(1) >= o.Score(2) {
		t.Fatal("Score not monotone")
	}
}

func TestPhantomAmplitudeKeysOnEnvelopeChanges(t *testing.T) {
	o := DefaultObserver()
	fs := 120.0
	refresh := 120.0
	pitch := 4.0
	// Steady alternation: envelope constant → zero jerk.
	steady := alternation(127, 20, 120, 1)
	if a := o.PhantomAmplitude(steady, fs, refresh, pitch); a > 1e-9 {
		t.Fatalf("steady alternation phantom = %v, want 0", a)
	}
	// Abrupt on/off data transition (stair): large envelope curvature.
	levels := []float64{20, 0, 20, 0}
	abrupt := waveform.Modulate(waveform.Envelope(waveform.Stair, levels, 12), 127)
	smooth := waveform.Modulate(waveform.Envelope(waveform.SqrtRaisedCosine, levels, 12), 127)
	pa := o.PhantomAmplitude(abrupt, fs, refresh, pitch)
	ps := o.PhantomAmplitude(smooth, fs, refresh, pitch)
	if pa <= 3*ps {
		t.Fatalf("abrupt phantom %v not well above smooth %v", pa, ps)
	}
	if ps <= 0 {
		t.Fatal("smooth transition should retain small nonzero phantom term")
	}
}

func TestPhantomStrideHandlesOversampling(t *testing.T) {
	o := DefaultObserver()
	levels := []float64{20, 0, 20, 0}
	base := waveform.Modulate(waveform.Envelope(waveform.Stair, levels, 12), 127)
	// Oversample 4x by repetition: the phantom measure must agree with the
	// 1x measurement because it works per display frame.
	over := make([]float64, 0, len(base)*4)
	for _, v := range base {
		for j := 0; j < 4; j++ {
			over = append(over, v)
		}
	}
	a1 := o.PhantomAmplitude(base, 120, 120, 4)
	a4 := o.PhantomAmplitude(over, 480, 120, 4)
	if math.Abs(a1-a4) > 1e-9 {
		t.Fatalf("oversampled phantom %v != base %v", a4, a1)
	}
}

func TestPhantomPitchMinimumAtOptimal(t *testing.T) {
	o := DefaultObserver()
	fs := 120.0
	levels := []float64{20, 0, 20, 0, 20, 0}
	w := waveform.Modulate(waveform.Envelope(waveform.Stair, levels, 12), 127)
	optPx := o.OptimalPitchDeg * o.PixelsPerDegree
	at := func(px float64) float64 { return o.PhantomAmplitude(w, fs, 120, px) }
	if at(optPx) >= at(optPx/4) || at(optPx) >= at(optPx*4) {
		t.Fatalf("phantom not minimal at optimal pitch: %v vs %v / %v",
			at(optPx), at(optPx/4), at(optPx*4))
	}
	if at(0) != 0 {
		t.Fatal("non-positive pitch should yield 0")
	}
}

func TestPanelDeterministicAndVaried(t *testing.T) {
	a := Panel(8, 42)
	b := Panel(8, 42)
	if len(a) != 8 {
		t.Fatalf("panel size %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("panel not deterministic for equal seeds")
		}
		if err := a[i].Validate(); err != nil {
			t.Fatalf("panel member %d invalid: %v", i, err)
		}
	}
	seen := map[float64]bool{}
	for _, o := range a {
		seen[o.Sensitivity] = true
	}
	if len(seen) < 4 {
		t.Fatal("panel members suspiciously uniform")
	}
}

func TestRateWaveformBounds(t *testing.T) {
	panel := Panel(8, 1)
	w := alternation(127, 20, 240, 4)
	ratings := RateWaveform(panel, w, 480, 120, 4, 99)
	if len(ratings) != 8 {
		t.Fatalf("got %d ratings", len(ratings))
	}
	for _, r := range ratings {
		if r < 0 || r > 4 {
			t.Fatalf("rating %d out of scale", r)
		}
	}
	again := RateWaveform(panel, w, 480, 120, 4, 99)
	for i := range ratings {
		if ratings[i] != again[i] {
			t.Fatal("ratings not deterministic for equal seeds")
		}
	}
}

func TestMeanStd(t *testing.T) {
	m, s := MeanStd([]int{1, 1, 3, 3})
	if m != 2 || s != 1 {
		t.Fatalf("MeanStd = %v, %v, want 2, 1", m, s)
	}
	if m, s := MeanStd(nil); m != 0 || s != 0 {
		t.Fatalf("MeanStd(nil) = %v, %v", m, s)
	}
}

func TestGridPoints(t *testing.T) {
	pts := GridPoints(100, 60, 3)
	if len(pts) != 9 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if p.X < 0 || p.X >= 100 || p.Y < 0 || p.Y >= 60 {
			t.Fatalf("point %+v out of bounds", p)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("GridPoints(.,.,0) did not panic")
		}
	}()
	GridPoints(10, 10, 0)
}

func buildDisplay(t *testing.T, flipEvery int, base, amp float32, n int) *display.Display {
	t.Helper()
	cfg := display.DefaultConfig()
	cfg.ResponseTime = 0
	d, err := display.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v := base + amp
		if (i/flipEvery)%2 == 1 {
			v = base - amp
		}
		if err := d.Push(frame.NewFilled(16, 16, v)); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestRateDisplayEndToEnd(t *testing.T) {
	panel := Panel(8, 7)
	// Complementary-style 60 Hz alternation: should rate low.
	good := buildDisplay(t, 1, 160, 20, 120)
	// Naive 30 Hz alternation: should rate high.
	bad := buildDisplay(t, 2, 160, 40, 120)
	gr := RateDisplay(panel, good, 2, 4, 4, 5)
	br := RateDisplay(panel, bad, 2, 4, 4, 5)
	gm, _ := MeanStd(gr)
	bm, _ := MeanStd(br)
	if gm > 1.2 {
		t.Fatalf("60 Hz display rated %v, want <= 1.2", gm)
	}
	if bm < 2 {
		t.Fatalf("30 Hz display rated %v, want >= 2", bm)
	}
}

func TestExtractWaveformsShape(t *testing.T) {
	d := buildDisplay(t, 1, 127, 10, 24)
	waves, fs := ExtractWaveforms(d, []Point{{X: 1, Y: 1}, {X: 8, Y: 8}}, 4)
	if len(waves) != 2 {
		t.Fatalf("got %d waveforms", len(waves))
	}
	if len(waves[0]) != 96 {
		t.Fatalf("waveform length %d, want 96", len(waves[0]))
	}
	if fs != 480 {
		t.Fatalf("fs = %v, want 480", fs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("oversample 0 did not panic")
		}
	}()
	ExtractWaveforms(d, nil, 0)
}
