package camera

import (
	"math"
	"testing"

	"inframe/internal/display"
	"inframe/internal/frame"
	"inframe/internal/parallel"
)

func testDisplay(t *testing.T, frames ...*frame.Frame) *display.Display {
	t.Helper()
	cfg := display.DefaultConfig()
	cfg.ResponseTime = 0
	d, err := display.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := d.Push(f); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func quietConfig(w, h int) Config {
	c := DefaultConfig(w, h)
	c.NoiseSigma = 0
	c.BlurRadius = 0
	c.ReadoutTime = 0
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(64, 36).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{W: 0, H: 10, FPS: 30, Exposure: 0.001, Gamma: 2.2},
		{W: 10, H: 10, FPS: 0, Exposure: 0.001, Gamma: 2.2},
		{W: 10, H: 10, FPS: 30, Exposure: 0, Gamma: 2.2},
		{W: 10, H: 10, FPS: 30, Exposure: 0.1, Gamma: 2.2}, // exposure > period
		{W: 10, H: 10, FPS: 30, Exposure: 0.001, Gamma: 2.2, ReadoutTime: 0.05},
		{W: 10, H: 10, FPS: 30, Exposure: 0.001, Gamma: 2.2, NoiseSigma: -1},
		{W: 10, H: 10, FPS: 30, Exposure: 0.001, Gamma: 2.2, BlurRadius: -1},
		{W: 10, H: 10, FPS: 30, Exposure: 0.001, Gamma: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

// TestStaticSceneRoundTrip: with matched gammas and no impairments, the
// camera recovers the drive values of a static display.
func TestStaticSceneRoundTrip(t *testing.T) {
	d := testDisplay(t, frame.NewFilled(32, 32, 180), frame.NewFilled(32, 32, 180))
	cam, err := New(quietConfig(32, 32))
	if err != nil {
		t.Fatal(err)
	}
	cap := cam.Capture(d, 0, 0)
	if cap.W != 32 || cap.H != 32 {
		t.Fatalf("capture size %dx%d", cap.W, cap.H)
	}
	if math.Abs(float64(cap.At(16, 16))-180) > 1 {
		t.Fatalf("captured %v, want ~180", cap.At(16, 16))
	}
}

func TestResolutionMismatch(t *testing.T) {
	d := testDisplay(t, frame.NewFilled(48, 36, 127))
	cam, err := New(quietConfig(32, 24))
	if err != nil {
		t.Fatal(err)
	}
	cap := cam.Capture(d, 0, 0)
	if cap.W != 32 || cap.H != 24 {
		t.Fatalf("capture size %dx%d, want 32x24", cap.W, cap.H)
	}
	if math.Abs(float64(cap.At(10, 10))-127) > 1.5 {
		t.Fatalf("captured %v, want ~127", cap.At(10, 10))
	}
}

func TestNoiseDeterministicPerIndex(t *testing.T) {
	d := testDisplay(t, frame.NewFilled(16, 16, 100))
	cfg := quietConfig(16, 16)
	cfg.NoiseSigma = 3
	cam, _ := New(cfg)
	a := cam.Capture(d, 0, 0)
	b := cam.Capture(d, 0, 0)
	if !a.Equal(b) {
		t.Fatal("same capture index produced different noise")
	}
	c := cam.Capture(d, 0, 1)
	if a.Equal(c) {
		t.Fatal("different capture indices produced identical noise")
	}
}

func TestNoiseMagnitude(t *testing.T) {
	d := testDisplay(t, frame.NewFilled(64, 64, 128))
	cfg := quietConfig(64, 64)
	cfg.NoiseSigma = 4
	cam, _ := New(cfg)
	cap := cam.Capture(d, 0, 0)
	// Sample standard deviation should be near sigma (quantization adds a
	// little).
	var sum, sum2 float64
	for _, v := range cap.Pix {
		sum += float64(v)
		sum2 += float64(float64(v) * float64(v))
	}
	n := float64(len(cap.Pix))
	mean := sum / n
	sd := math.Sqrt(sum2/n - float64(mean*mean))
	if sd < 3 || sd > 5 {
		t.Fatalf("noise sd = %v, want ~4", sd)
	}
	if math.Abs(mean-128) > 0.5 {
		t.Fatalf("noise biased mean to %v", mean)
	}
}

// TestRollingShutterStraddlesTransition: when the display switches content
// mid-readout, top sensor rows see the old frame and bottom rows the new one.
func TestRollingShutterStraddlesTransition(t *testing.T) {
	// 120 Hz display: frame 0 dark (drive 50), frames 1.. bright (drive 200).
	frames := []*frame.Frame{frame.NewFilled(32, 32, 50)}
	for i := 0; i < 5; i++ {
		frames = append(frames, frame.NewFilled(32, 32, 200))
	}
	d := testDisplay(t, frames...)
	cfg := quietConfig(32, 32)
	cfg.ReadoutTime = 0.020
	cfg.Exposure = 0.002
	cam, _ := New(cfg)
	// Start exposure so that the display transition (at t=1/120≈8.33 ms)
	// falls mid-readout.
	cap := cam.Capture(d, 0.004, 0)
	top := float64(cap.Region(0, 0, 32, 4).Mean())
	bottom := float64(cap.Region(0, 28, 32, 4).Mean())
	if !(top < 80 && bottom > 170) {
		t.Fatalf("rolling shutter: top=%v bottom=%v, want dark top / bright bottom", top, bottom)
	}
	// A global shutter at the same instant sees a uniform frame.
	cfg.ReadoutTime = 0
	cam2, _ := New(cfg)
	cap2 := cam2.Capture(d, 0.004, 0)
	top2 := float64(cap2.Region(0, 0, 32, 4).Mean())
	bottom2 := float64(cap2.Region(0, 28, 32, 4).Mean())
	if math.Abs(top2-bottom2) > 2 {
		t.Fatalf("global shutter: top=%v bottom=%v, want uniform", top2, bottom2)
	}
}

// TestExposureSpanningPairFusesData: an exposure covering a complementary
// pair integrates the chessboard away — the reason InFrame needs the camera
// exposure shorter than one refresh interval.
func TestExposureSpanningPairFusesData(t *testing.T) {
	base := frame.NewFilled(16, 16, 127)
	chess := frame.New(16, 16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			if (x+y)%2 == 1 {
				chess.Set(x, y, 30)
			}
		}
	}
	plus := base.Clone()
	plus.Add(chess)
	minus := base.Clone()
	minus.Sub(chess)
	d := testDisplay(t, plus, minus, plus, minus)

	cfg := quietConfig(16, 16)
	cfg.Gamma = 1 // isolate temporal integration from gamma asymmetry
	dispCfg := display.DefaultConfig()
	dispCfg.ResponseTime = 0
	dispCfg.Gamma = 1
	dLin, _ := display.New(dispCfg)
	for _, f := range []*frame.Frame{plus, minus, plus, minus} {
		dLin.Push(f)
	}

	// Short exposure within one refresh interval: chessboard visible.
	cfg.Exposure = 0.004
	camShort, _ := New(cfg)
	short := camShort.Capture(dLin, 0.001, 0)
	if e := frame.HighFreqEnergy(short, 1); e < 8 {
		t.Fatalf("short exposure chessboard energy = %v, want >= 8", e)
	}
	// Exposure spanning exactly one pair: chessboard cancels.
	cfg.Exposure = 2.0 / 120
	camLong, _ := New(cfg)
	long := camLong.Capture(dLin, 0, 0)
	if e := frame.HighFreqEnergy(long, 1); e > 1 {
		t.Fatalf("pair-spanning exposure energy = %v, want <= 1", e)
	}
	_ = d
}

func TestBlurSoftensEdges(t *testing.T) {
	f := frame.New(32, 32)
	for y := 0; y < 32; y++ {
		for x := 16; x < 32; x++ {
			f.Set(x, y, 255)
		}
	}
	d := testDisplay(t, f)
	cfgSharp := quietConfig(32, 32)
	cfgBlur := quietConfig(32, 32)
	cfgBlur.BlurRadius = 2
	camSharp, _ := New(cfgSharp)
	camBlur, _ := New(cfgBlur)
	sharp := camSharp.Capture(d, 0, 0)
	blur := camBlur.Capture(d, 0, 0)
	eSharp := frame.HighFreqEnergy(sharp, 2)
	eBlur := frame.HighFreqEnergy(blur, 2)
	if eBlur >= eSharp {
		t.Fatalf("blur did not reduce edge energy: %v >= %v", eBlur, eSharp)
	}
}

func TestCaptureQuantized(t *testing.T) {
	d := testDisplay(t, frame.NewFilled(8, 8, 100))
	cfg := quietConfig(8, 8)
	cfg.NoiseSigma = 2
	cam, _ := New(cfg)
	cap := cam.Capture(d, 0, 0)
	for i, v := range cap.Pix {
		if v != float32(math.Trunc(float64(v))) || v < 0 || v > 255 {
			t.Fatalf("pixel %d = %v not an 8-bit integer", i, v)
		}
	}
}

func TestCapturePanicsOnEmptyDisplay(t *testing.T) {
	d := testDisplay(t)
	cam, _ := New(quietConfig(8, 8))
	defer func() {
		if recover() == nil {
			t.Fatal("capture of empty display did not panic")
		}
	}()
	cam.Capture(d, 0, 0)
}

// TestSharedResamplerWorkerInvariance: concurrent captures through one
// camera share its cached resample table; they must equal captures from a
// fresh camera each, whole-panel and cropped, at any pool width.
func TestSharedResamplerWorkerInvariance(t *testing.T) {
	src := frame.New(96, 54)
	for i := range src.Pix {
		src.Pix[i] = float32((i * 37) % 251)
	}
	d := testDisplay(t, src, frame.NewFilled(96, 54, 90))
	for _, crop := range []bool{false, true} {
		cfg := DefaultConfig(64, 36)
		cfg.Workers = 1
		if crop {
			cfg.CropX0, cfg.CropY0, cfg.CropW, cfg.CropH = 7, 5, 71, 41
		}
		const n = 12
		want := make([]*frame.Frame, n)
		for i := range want {
			cam, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = cam.Capture(d, float64(i)*0.0013, i)
		}
		for _, workers := range []int{1, 2, 8} {
			cam, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]*frame.Frame, n)
			parallel.For(workers, n, func(i int) {
				got[i] = cam.Capture(d, float64(i)*0.0013, i)
			})
			for i := range want {
				for j, v := range want[i].Pix {
					if math.Float32bits(got[i].Pix[j]) != math.Float32bits(v) {
						t.Fatalf("crop=%v workers=%d capture %d pixel %d: shared %v, fresh %v", crop, workers, i, j, got[i].Pix[j], v)
					}
				}
			}
		}
	}
}
