package display

import (
	"math"
	"strings"
	"testing"
	"time"

	"inframe/internal/frame"
)

func mustNew(t *testing.T, cfg Config) *Display {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func idealConfig() Config {
	c := DefaultConfig()
	c.ResponseTime = 0
	c.Gamma = 1
	return c
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{RefreshHz: 0, Brightness: 1, Gamma: 2.2},
		{RefreshHz: 120, Brightness: 0, Gamma: 2.2},
		{RefreshHz: 120, Brightness: 1.5, Gamma: 2.2},
		{RefreshHz: 120, Brightness: 1, Gamma: 0},
		{RefreshHz: 120, Brightness: 1, Gamma: 2.2, ResponseTime: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
		if _, err := New(c); err == nil {
			t.Errorf("New accepted bad config %d", i)
		}
	}
}

func TestPushSizeEnforcement(t *testing.T) {
	d := mustNew(t, idealConfig())
	if err := d.Push(frame.NewFilled(8, 4, 100)); err != nil {
		t.Fatal(err)
	}
	if err := d.Push(frame.NewFilled(4, 4, 100)); err == nil {
		t.Fatal("Push accepted mismatched frame size")
	}
	if w, h := d.Size(); w != 8 || h != 4 {
		t.Fatalf("Size = %dx%d, want 8x4", w, h)
	}
}

func TestDurationAccounting(t *testing.T) {
	d := mustNew(t, idealConfig())
	for i := 0; i < 12; i++ {
		if err := d.Push(frame.NewFilled(4, 4, 50)); err != nil {
			t.Fatal(err)
		}
	}
	if d.NumFrames() != 12 {
		t.Fatalf("NumFrames = %d", d.NumFrames())
	}
	if math.Abs(d.Duration()-0.1) > 1e-12 {
		t.Fatalf("Duration = %v, want 0.1", d.Duration())
	}
	if math.Abs(d.FrameDuration()-1.0/120) > 1e-15 {
		t.Fatalf("FrameDuration = %v", d.FrameDuration())
	}
}

func TestGammaMapsDriveToLuminance(t *testing.T) {
	cfg := idealConfig()
	cfg.Gamma = 2.2
	d := mustNew(t, cfg)
	if err := d.Push(frame.NewFilled(2, 2, 127)); err != nil {
		t.Fatal(err)
	}
	want := float64(255 * math.Pow(127.0/255, 2.2))
	got := float64(d.Luminance(0).At(0, 0))
	if math.Abs(got-want) > 1e-3 {
		t.Fatalf("luminance = %v, want %v", got, want)
	}
	// Drive 255 → peak.
	d2 := mustNew(t, cfg)
	d2.Push(frame.NewFilled(1, 1, 255))
	if v := d2.Luminance(0).At(0, 0); math.Abs(float64(v)-255) > 1e-3 {
		t.Fatalf("peak luminance = %v, want 255", v)
	}
}

func TestBrightnessScales(t *testing.T) {
	cfg := idealConfig()
	cfg.Brightness = 0.5
	d := mustNew(t, cfg)
	d.Push(frame.NewFilled(1, 1, 255))
	if v := d.Luminance(0).At(0, 0); math.Abs(float64(v)-127.5) > 1e-3 {
		t.Fatalf("half-brightness peak = %v, want 127.5", v)
	}
}

func TestPushClampsAndQuantizes(t *testing.T) {
	d := mustNew(t, idealConfig())
	f := frame.New(3, 1)
	f.Pix[0], f.Pix[1], f.Pix[2] = -40, 300, 99.7
	d.Push(f)
	l := d.Luminance(0)
	if l.Pix[0] != 0 || l.Pix[1] != 255 || l.Pix[2] != 100 {
		t.Fatalf("clamp/quantize: got %v", l.Pix[:3])
	}
}

func TestWindowAverageSingleFrame(t *testing.T) {
	d := mustNew(t, idealConfig())
	d.Push(frame.NewFilled(4, 4, 80))
	avg := d.WindowAverage(0, d.FrameDuration())
	if math.Abs(float64(avg.At(2, 2))-80) > 1e-4 {
		t.Fatalf("single-frame average = %v, want 80", avg.At(2, 2))
	}
}

func TestWindowAverageSpansFrames(t *testing.T) {
	d := mustNew(t, idealConfig())
	d.Push(frame.NewFilled(2, 2, 100))
	d.Push(frame.NewFilled(2, 2, 200))
	T := d.FrameDuration()
	avg := d.WindowAverage(0, 2*T)
	if math.Abs(float64(avg.At(0, 0))-150) > 1e-4 {
		t.Fatalf("two-frame average = %v, want 150", avg.At(0, 0))
	}
	// 75/25 split.
	avg2 := d.WindowAverage(0.5*T, T+float64(0.5*T)+1e-12)
	if math.Abs(float64(avg2.At(0, 0))-150) > 1e-3 {
		t.Fatalf("half-offset average = %v, want 150", avg2.At(0, 0))
	}
	avg3 := d.WindowAverage(0, 0.5*T)
	if math.Abs(float64(avg3.At(0, 0))-100) > 1e-4 {
		t.Fatalf("first-half average = %v, want 100", avg3.At(0, 0))
	}
}

func TestWindowAverageHoldsBeyondEnds(t *testing.T) {
	d := mustNew(t, idealConfig())
	d.Push(frame.NewFilled(2, 2, 60))
	d.Push(frame.NewFilled(2, 2, 200))
	T := d.FrameDuration()
	before := d.WindowAverage(-5*T, -4*T)
	if math.Abs(float64(before.At(0, 0))-60) > 1e-4 {
		t.Fatalf("pre-start hold = %v, want 60", before.At(0, 0))
	}
	after := d.WindowAverage(10*T, 12*T)
	if math.Abs(float64(after.At(1, 1))-200) > 1e-4 {
		t.Fatalf("post-end hold = %v, want 200", after.At(1, 1))
	}
	// 2⁴⁰ and 2⁵⁰ refresh intervals out: past where a 32-bit interval
	// index wraps, inside maxInterval.
	for _, k := range []float64{1 << 40, 1 << 50} {
		if v := d.WindowAverage(-k*T, float64(-k*T)+float64(2*T)).At(0, 0); math.Abs(float64(v)-60) > 1e-3 {
			t.Errorf("hold %v intervals before the start = %v, want 60", k, v)
		}
		if v := d.WindowAverage(k*T, float64(k*T)+float64(2*T)).At(1, 1); math.Abs(float64(v)-200) > 1e-3 {
			t.Errorf("hold %v intervals past the end = %v, want 200", k, v)
		}
	}
}

// TestComplementaryFusionOnDisplay: the core InFrame property end-to-end at
// the display level — with gamma=1, averaging V+D and V−D over one pair
// window recovers V exactly.
func TestComplementaryFusionOnDisplay(t *testing.T) {
	d := mustNew(t, idealConfig())
	v := frame.NewFilled(4, 4, 127)
	chess := frame.New(4, 4)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if (x+y)%2 == 1 {
				chess.Set(x, y, 20)
			}
		}
	}
	plus := v.Clone()
	plus.Add(chess)
	minus := v.Clone()
	minus.Sub(chess)
	d.Push(plus)
	d.Push(minus)
	avg := d.WindowAverage(0, 2*d.FrameDuration())
	for i, p := range avg.Pix {
		if math.Abs(float64(p)-127) > 1e-3 {
			t.Fatalf("fused pixel %d = %v, want 127", i, p)
		}
	}
}

func TestResponseSmearsTransition(t *testing.T) {
	cfg := idealConfig()
	cfg.ResponseTime = 0.004
	d := mustNew(t, cfg)
	d.Push(frame.NewFilled(2, 2, 0))
	d.Push(frame.NewFilled(2, 2, 200))
	T := d.FrameDuration()
	// During the second interval, the pixel is still rising: its mean must
	// be strictly between 0 and 200, and below an ideal display's 200.
	avg := d.WindowAverage(T, 2*T)
	v := float64(avg.At(0, 0))
	if v <= 0 || v >= 200 {
		t.Fatalf("smeared average = %v, want within (0,200)", v)
	}
	// With a long settling run the state converges to the target.
	for i := 0; i < 40; i++ {
		d.Push(frame.NewFilled(2, 2, 200))
	}
	late := d.WindowAverage(40*T, 41*T)
	if math.Abs(float64(late.At(0, 0))-200) > 0.5 {
		t.Fatalf("settled average = %v, want ~200", late.At(0, 0))
	}
}

func TestResponseConservesPairMean(t *testing.T) {
	// Complementary alternation through a symmetric exponential response
	// still fuses to the video level once the alternation reaches steady
	// state (the response delays but does not bias the mean).
	cfg := idealConfig()
	cfg.ResponseTime = 0.003
	d := mustNew(t, cfg)
	for i := 0; i < 40; i++ {
		lv := float32(107)
		if i%2 == 0 {
			lv = 147
		}
		d.Push(frame.NewFilled(2, 2, lv))
	}
	T := d.FrameDuration()
	avg := d.WindowAverage(20*T, 22*T)
	if math.Abs(float64(avg.At(0, 0))-127) > 0.5 {
		t.Fatalf("steady alternation mean = %v, want ~127", avg.At(0, 0))
	}
}

func TestPixelWaveform(t *testing.T) {
	d := mustNew(t, idealConfig())
	d.Push(frame.NewFilled(2, 2, 100))
	d.Push(frame.NewFilled(2, 2, 200))
	T := d.FrameDuration()
	wf := d.PixelWaveform(0, 0, 0, 2*T, 4)
	if len(wf) != 4 {
		t.Fatalf("len = %d", len(wf))
	}
	if math.Abs(wf[0]-100) > 1e-3 || math.Abs(wf[3]-200) > 1e-3 {
		t.Fatalf("waveform = %v", wf)
	}
}

func TestEncodeLuminanceInverse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ResponseTime = 0
	d := mustNew(t, cfg)
	d.Push(frame.NewFilled(1, 1, 180))
	l := float64(d.Luminance(0).At(0, 0))
	if got := d.EncodeLuminance(l); math.Abs(got-180) > 1e-3 {
		t.Fatalf("EncodeLuminance round trip = %v, want 180", got)
	}
	if d.EncodeLuminance(-4) != 0 {
		t.Fatal("negative luminance should encode to 0")
	}
	if d.EncodeLuminance(1e6) != 255 {
		t.Fatal("huge luminance should clamp to 255")
	}
}

// TestRowAveragePanics: empty windows, bad rows and windows whose ends are
// NaN, infinite or too far out to index a refresh interval must panic. Each
// case runs in its own goroutine under a deadline, so a window that loops
// instead of panicking fails the test rather than hanging the suite.
func TestRowAveragePanics(t *testing.T) {
	d := mustNew(t, idealConfig())
	d.Push(frame.NewFilled(2, 2, 1))
	for _, c := range []struct {
		name   string
		y      int
		t0, t1 float64
	}{
		{"empty window", 0, 1, 1},
		{"bad row", 5, 0, 0.01},
		{"NaN start", 0, math.NaN(), 0.01},
		{"-Inf start", 0, math.Inf(-1), 0.01},
		{"-1e300 start", 0, -1e300, 0.01},
		{"NaN end", 0, 0, math.NaN()},
		{"+Inf end", 0, 0, math.Inf(1)},
		{"1e300 end", 0, 0, 1e300},
	} {
		panicked := make(chan bool, 1)
		go func() {
			defer func() { panicked <- recover() != nil }()
			d.RowAverage(c.y, c.t0, c.t1, make([]float32, 2))
		}()
		select {
		case ok := <-panicked:
			if !ok {
				t.Errorf("%s [%v,%v) did not panic", c.name, c.t0, c.t1)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s [%v,%v) still running after 5s", c.name, c.t0, c.t1)
		}
	}
	// A far but in-range pre-start window still integrates the held frame.
	row := make([]float32, 2)
	d.RowAverage(0, -1e6, -1e6+0.01, row)
	if row[0] != 1 {
		t.Fatalf("pre-start hold at t=-1e6 reads %v, want 1", row[0])
	}
}

// TestRetire: released frames panic with their index when read, live ones
// and reads past the end keep working, and non-finite horizons are handled
// without converting them to int.
func TestRetire(t *testing.T) {
	for _, resp := range []float64{0, 0.002} {
		cfg := idealConfig()
		cfg.ResponseTime = resp
		d := mustNew(t, cfg)
		T := d.FrameDuration()
		for k := 0; k < 10; k++ {
			d.Push(frame.NewFilled(2, 2, float32(10*k)))
		}
		d.Retire(math.NaN())
		d.Retire(math.Inf(-1))
		d.Retire(-3 * T)
		if got := d.Luminance(0).At(0, 0); got != 0 {
			t.Fatalf("resp=%v: frame 0 after no-op retires reads %v", resp, got)
		}
		want := d.WindowAverage(4.5*T, 6*T)
		d.Retire(4.5 * T) // releases frames 0..3
		if d.NumFrames() != 10 {
			t.Fatalf("resp=%v: NumFrames = %d after Retire, want 10", resp, d.NumFrames())
		}
		// A window starting at the horizon reads only live frames.
		if got := d.WindowAverage(4.5*T, 6*T); !got.Equal(want) {
			t.Fatalf("resp=%v: window at the horizon changed across Retire", resp)
		}
		mustPanic(t, "frame 3", func() { d.RowAverage(0, 3.5*T, 4.5*T, make([]float32, 2)) })
		mustPanic(t, "frame 0", func() { d.Luminance(-1) })
		d.Retire(math.Inf(1)) // keeps only frame 9
		mustPanic(t, "frame 8", func() { d.Luminance(8) })
		row := make([]float32, 2)
		d.RowAverage(0, 20*T, 21*T, row)
		if row[0] != 90 {
			t.Fatalf("resp=%v: read past the end gives %v, want the held last frame 90", resp, row[0])
		}
		// Retired slots are reused: pushes after a retire overwrite them.
		for k := 10; k < 14; k++ {
			d.Push(frame.NewFilled(2, 2, float32(10*k)))
		}
		if got := d.Luminance(13).At(1, 1); got != 130 {
			t.Fatalf("resp=%v: reused slot reads %v, want 130", resp, got)
		}
		if d.NumFrames() != 14 {
			t.Fatalf("resp=%v: NumFrames = %d, want 14", resp, d.NumFrames())
		}
	}
	// Retire on an empty display is a no-op at every horizon.
	d := mustNew(t, idealConfig())
	for _, h := range []float64{math.Inf(1), 1, 0, -1} {
		d.Retire(h)
	}
	if d.NumFrames() != 0 {
		t.Fatal("Retire on an empty display changed it")
	}
}

// TestClose: a closed display still reports what was pushed, panics on a
// read, refuses a push and ignores Retire and a second Close; the next
// display of its size reuses its slots, and every code of a reused slot is
// the new frame's.
func TestClose(t *testing.T) {
	for _, resp := range []float64{0, 0.002} {
		cfg := idealConfig()
		cfg.ResponseTime = resp
		d := mustNew(t, cfg)
		T := d.FrameDuration()
		for k := 0; k < 5; k++ {
			d.Push(frame.NewFilled(2, 2, float32(10*k+5)))
		}
		d.Retire(2 * T)
		d.Close()
		d.Close()
		d.Retire(math.Inf(1))
		if d.NumFrames() != 5 || d.Duration() != 5*T {
			t.Fatalf("resp=%v: closed display reports %d frames, %v s; want 5, %v", resp, d.NumFrames(), d.Duration(), 5*T)
		}
		mustPanic(t, "after Close", func() { d.Luminance(4) })
		mustPanic(t, "after Close", func() { d.RowAverage(0, 3*T, 4*T, make([]float32, 2)) })
		if err := d.Push(frame.NewFilled(2, 2, 1)); err == nil || !strings.Contains(err.Error(), "after Close") {
			t.Fatalf("resp=%v: push onto a closed display returned %v", resp, err)
		}
		next := mustNew(t, cfg)
		for k := 0; k < 6; k++ {
			next.Push(frame.NewFilled(2, 2, float32(200+k)))
		}
		for k := 0; k < 6; k++ {
			if got := next.Luminance(k); !got.Equal(frame.NewFilled(2, 2, float32(200+k))) {
				t.Fatalf("resp=%v: frame %d of the next display reads %v, want %d", resp, k, got.Pix, 200+k)
			}
		}
		next.Close()
	}
}

// TestRetireMatchesUnretired: a display that retires behind a sliding
// window integrates exactly what a display keeping every frame does, with
// and without pixel response and strobing.
func TestRetireMatchesUnretired(t *testing.T) {
	for _, cfg := range []Config{idealConfig(), DefaultConfig(), {RefreshHz: 120, Brightness: 1, Gamma: 2.2, StrobeDuty: 0.5}} {
		full, bounded := mustNew(t, cfg), mustNew(t, cfg)
		T := full.FrameDuration()
		got, want := make([]float32, 3), make([]float32, 3)
		for k := 0; k < 40; k++ {
			f := frame.New(3, 2)
			for i := range f.Pix {
				f.Pix[i] = float32((37*k + 11*i) % 256)
			}
			full.Push(f)
			bounded.Push(f)
			t0 := float64((float64(k) - 1.7) * T)
			bounded.Retire(t0)
			for y := 0; y < 2; y++ {
				full.RowAverage(y, t0, t0+float64(1.3*T), want)
				bounded.RowAverage(y, t0, t0+float64(1.3*T), got)
				for x := range want {
					if math.Float32bits(got[x]) != math.Float32bits(want[x]) {
						t.Fatalf("%+v frame %d row %d px %d: bounded %v, full %v", cfg, k, y, x, got[x], want[x])
					}
				}
			}
		}
	}
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one naming %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not name %q", r, want)
		}
	}()
	fn()
}

func TestLuminanceBeforePushPanics(t *testing.T) {
	d := mustNew(t, idealConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("Luminance before Push did not panic")
		}
	}()
	d.Luminance(0)
}

func TestStrobeValidate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StrobeDuty = 1.5
	if err := cfg.Validate(); err == nil {
		t.Fatal("StrobeDuty > 1 accepted")
	}
	cfg.StrobeDuty = -0.1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative StrobeDuty accepted")
	}
}

// TestStrobePreservesMeanLuminance: the 1/duty boost keeps the full-frame
// average identical to a continuous backlight.
func TestStrobePreservesMeanLuminance(t *testing.T) {
	cfg := idealConfig()
	cfg.StrobeDuty = 0.25
	d := mustNew(t, cfg)
	for i := 0; i < 4; i++ {
		d.Push(frame.NewFilled(4, 4, 100))
	}
	avg := d.WindowAverage(0, 4*d.FrameDuration())
	if math.Abs(float64(avg.At(2, 2))-100) > 1e-3 {
		t.Fatalf("strobed mean %v, want 100", avg.At(2, 2))
	}
}

// TestStrobeConcentratesLight: a window covering only the dark part of the
// interval sees nothing; the strobe slot sees the boosted level.
func TestStrobeConcentratesLight(t *testing.T) {
	cfg := idealConfig()
	cfg.StrobeDuty = 0.25
	d := mustNew(t, cfg)
	d.Push(frame.NewFilled(2, 2, 80))
	T := d.FrameDuration()
	dark := d.WindowAverage(0, 0.5*T)
	if dark.At(0, 0) != 0 {
		t.Fatalf("dark phase luminance %v, want 0", dark.At(0, 0))
	}
	lit := d.WindowAverage(0.75*T, T)
	if math.Abs(float64(lit.At(0, 0))-4*80) > 1e-3 {
		t.Fatalf("strobe slot luminance %v, want %v", lit.At(0, 0), 4*80)
	}
}

// TestStrobeComplementaryPairStillFuses: strobing does not bias the pair
// average, so the viewer still sees V.
func TestStrobeComplementaryPairStillFuses(t *testing.T) {
	cfg := idealConfig()
	cfg.StrobeDuty = 0.3
	d := mustNew(t, cfg)
	d.Push(frame.NewFilled(2, 2, 147))
	d.Push(frame.NewFilled(2, 2, 107))
	avg := d.WindowAverage(0, 2*d.FrameDuration())
	if math.Abs(float64(avg.At(1, 1))-127) > 1e-3 {
		t.Fatalf("strobed pair fuses to %v, want 127", avg.At(1, 1))
	}
}
