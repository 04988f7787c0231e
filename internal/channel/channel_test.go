package channel

import (
	"math"
	"slices"
	"testing"

	"inframe/internal/camera"
	"inframe/internal/core"
	"inframe/internal/display"
	"inframe/internal/frame"
	"inframe/internal/impair"
	"inframe/internal/metrics"
	"inframe/internal/parallel"
	"inframe/internal/video"
)

// testLayout: 6×4 blocks of 8×8 px (p=2, s=4) on a 48×32 panel.
func testLayout() core.Layout {
	return core.Layout{
		FrameW: 48, FrameH: 32,
		PixelSize: 2, BlockSize: 4, GOBSize: 2,
		BlocksX: 6, BlocksY: 4,
	}
}

func testParams() core.Params {
	p := core.DefaultParams(testLayout())
	p.Tau = 8
	return p
}

// quietChannel is a benign channel: capture at display resolution, short
// exposure, no rolling shutter, light noise.
func quietChannel(capW, capH int) Config {
	cfg := DefaultConfig(capW, capH)
	cfg.Camera.ReadoutTime = 0
	cfg.Camera.NoiseSigma = 0.5
	cfg.Camera.BlurRadius = 0
	cfg.Camera.Exposure = 0.004
	cfg.Display.ResponseTime = 0
	return cfg
}

func TestNewValidatesConfigs(t *testing.T) {
	cfg := DefaultConfig(48, 32)
	cfg.Display.RefreshHz = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted bad display config")
	}
	cfg = DefaultConfig(48, 32)
	cfg.Camera.FPS = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted bad camera config")
	}
}

func TestTransmitAndCaptureAll(t *testing.T) {
	link, err := New(quietChannel(48, 32))
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]*frame.Frame, 60) // 0.5 s at 120 Hz
	for i := range frames {
		frames[i] = frame.NewFilled(48, 32, 127)
	}
	if err := link.Transmit(frames); err != nil {
		t.Fatal(err)
	}
	caps, times := link.CaptureAll()
	if len(caps) == 0 {
		t.Fatal("no captures from a 0.5 s transmission")
	}
	if len(caps) != len(times) {
		t.Fatal("captures/times length mismatch")
	}
	// ~30 FPS over 0.5 s minus the tail margin.
	if len(caps) < 12 || len(caps) > 15 {
		t.Fatalf("capture count %d, want ~14", len(caps))
	}
}

func TestCaptureAllEmptyDisplay(t *testing.T) {
	link, err := New(quietChannel(48, 32))
	if err != nil {
		t.Fatal(err)
	}
	caps, _ := link.CaptureAll()
	if caps != nil {
		t.Fatal("expected no captures from an empty display")
	}
}

func TestSimulateEndToEndGray(t *testing.T) {
	p := testParams()
	l := p.Layout
	stream := core.NewRandomStream(l, 31)
	m, err := core.NewMultiplexer(p, video.Gray(l.FrameW, l.FrameH), stream)
	if err != nil {
		t.Fatal(err)
	}
	nData := 14 // enough frames for the per-Block baseline to settle
	res, err := Simulate(m, nData*p.Tau+24, quietChannel(48, 32))
	if err != nil {
		t.Fatal(err)
	}
	rcfg := core.DefaultReceiverConfig(p, 48, 32)
	r, err := core.NewReceiver(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	decoded := r.DecodeCaptures(res.Captures, res.Times, res.Exposure, nData)
	var stats metrics.GOBStats
	for d, fd := range decoded {
		stats.AddWithOracle(fd, stream.DataFrame(d))
	}
	if ratio := stats.AvailableRatio(); ratio < 0.9 {
		t.Fatalf("benign-channel availability %.2f, want >= 0.9", ratio)
	}
	if errRate := stats.ErrorRate(); errRate > 0.05 {
		t.Fatalf("benign-channel error rate %.2f, want <= 0.05", errRate)
	}
}

func TestSimulateTooShort(t *testing.T) {
	p := testParams()
	m, err := core.NewMultiplexer(p, video.Gray(48, 32), core.NewRandomStream(p.Layout, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(m, 2, quietChannel(48, 32)); err == nil {
		t.Fatal("expected error for too-short transmission")
	}
}

// TestRollingShutterDegradesAvailability: the same transmission decoded
// through a rolling-shutter, longer-exposure camera must lose availability
// relative to the benign channel — the §3.3 impairment.
func TestRollingShutterDegradesAvailability(t *testing.T) {
	p := testParams()
	l := p.Layout
	stream := core.NewRandomStream(l, 33)
	availability := func(cfg Config) float64 {
		m, err := core.NewMultiplexer(p, video.Gray(l.FrameW, l.FrameH), stream)
		if err != nil {
			t.Fatal(err)
		}
		nData := 14
		res, err := Simulate(m, nData*p.Tau+24, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.NewReceiver(core.DefaultReceiverConfig(p, 48, 32))
		if err != nil {
			t.Fatal(err)
		}
		var stats metrics.GOBStats
		for _, fd := range r.DecodeCaptures(res.Captures, res.Times, res.Exposure, nData) {
			stats.Add(fd)
		}
		return stats.AvailableRatio()
	}
	benign := availability(quietChannel(48, 32))
	// An exposure spanning exactly one complementary pair integrates the
	// chessboard away on every row — the §3.2 rate-mismatch failure mode.
	harsh := quietChannel(48, 32)
	harsh.Camera.Exposure = 2.0 / 120
	harshAvail := availability(harsh)
	if harshAvail >= benign-0.3 {
		t.Fatalf("pair-spanning exposure did not collapse availability: %.3f vs benign %.3f", harshAvail, benign)
	}
}

// TestCameraStartEdgeCases is the regression test for CameraStart values
// outside [0, display frame period): both directions are defined behaviour
// (see the Config.CameraStart doc), not artifacts.
func TestCameraStartEdgeCases(t *testing.T) {
	mkFrames := func() []*frame.Frame {
		frames := make([]*frame.Frame, 60) // 0.5 s at 120 Hz
		for k := range frames {
			frames[k] = frame.NewFilled(48, 32, float32(40+2*k))
		}
		return frames
	}
	base := quietChannel(48, 32)
	base.Camera.NoiseSigma = 0

	t.Run("negative offset holds the first frame", func(t *testing.T) {
		cfg := base
		cfg.CameraStart = -0.05
		link, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := link.Transmit(mkFrames()); err != nil {
			t.Fatal(err)
		}
		caps, times := link.CaptureAll()
		// The budget formula gains captures from a negative offset: every
		// extra slot sees the held first frame.
		wantN := int((0.5 - cfg.CameraStart - cfg.Camera.Exposure) / (1.0 / 30))
		if len(caps) != wantN {
			t.Fatalf("capture count %d, want %d from the budget formula", len(caps), wantN)
		}
		if math.Abs(times[0]-cfg.CameraStart) > 0 {
			t.Fatalf("first exposure at %v, want CameraStart %v", times[0], cfg.CameraStart)
		}
		// Captures whose window closes before t=0 integrate the first
		// pushed frame as a static hold.
		held := link.Camera.Capture(link.Display, 0, 0)
		for i := range caps {
			if times[i]+cfg.Camera.Exposure > 0 {
				break
			}
			if !caps[i].Equal(held) {
				t.Fatalf("pre-start capture %d differs from the held first frame", i)
			}
		}
		if !caps[0].Equal(held) {
			t.Fatal("no pre-start capture was checked")
		}
	})

	t.Run("offset beyond one frame period skips ahead", func(t *testing.T) {
		frameT := 1.0 / 120
		cfg := base
		cfg.CameraStart = 10.5 * frameT // mid-interval of display frame 10
		link, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := link.Transmit(mkFrames()); err != nil {
			t.Fatal(err)
		}
		caps, times := link.CaptureAll()
		if len(caps) == 0 {
			t.Fatal("no captures for an in-range late start")
		}
		if math.Abs(times[0]-cfg.CameraStart) > 0 {
			t.Fatalf("first exposure at %v, want %v (no period wrap-around)", times[0], cfg.CameraStart)
		}
		// Display frame 10 is filled with 60; the default gamma round-trip
		// is identity for static content, so the capture must read ~60 —
		// not the ~40 of frame 0 a modulo-period wrap would produce.
		mean := caps[0].Mean()
		if mean < 58 || mean > 62 {
			t.Fatalf("first capture mean %.1f, want ~60 (display frame 10), not ~40 (frame 0)", mean)
		}
	})

	t.Run("non-finite offsets are rejected", func(t *testing.T) {
		for _, start := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := base
			cfg.CameraStart = start
			if _, err := New(cfg); err == nil {
				t.Errorf("New accepted CameraStart %v", start)
			}
		}
	})

	t.Run("offset beyond the transmission fails cleanly", func(t *testing.T) {
		p := testParams()
		m, err := core.NewMultiplexer(p, video.Gray(48, 32), core.NewRandomStream(p.Layout, 1))
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.CameraStart = 0.6 // past the 0.5 s transmission
		if _, err := Simulate(m, 60, cfg); err == nil {
			t.Fatal("expected the too-short error for an offset past the transmission")
		}
	})
}

// TestScheduleSpacing: a clean schedule starts at the camera start, spaces
// captures by exactly the camera frame period, fits as many as the budget
// formula allows, and drives each capture at its scheduled time.
func TestScheduleSpacing(t *testing.T) {
	cfg := quietChannel(8, 8)
	cam := cfg.Camera
	period := 1 / cam.FPS
	dur := 0.5 + cam.Exposure + 3.5*period // room for exactly 3 captures from t=0.5
	s := NewSchedule(dur, 0.5, cam, nil)
	if len(s.Times) != 3 {
		t.Fatalf("got %d captures, want 3", len(s.Times))
	}
	if s.Times[0] != 0.5 {
		t.Fatalf("start %v, want 0.5", s.Times[0])
	}
	for i := 1; i < len(s.Times); i++ {
		if math.Abs(s.Times[i]-s.Times[i-1]-period) > 1e-12 {
			t.Fatalf("spacing %v, want %v", s.Times[i]-s.Times[i-1], period)
		}
	}
	if math.Abs(s.Period-period) > 0 || len(s.stack.Names()) != 0 {
		t.Fatalf("clean schedule has period %v and stages %v, want %v and none", s.Period, s.stack.Names(), period)
	}
	// A zero impairment config is the identity stack: the same timetable.
	if z := NewSchedule(dur, 0.5, cam, &impair.Config{}); !slices.Equal(z.Times, s.Times) {
		t.Fatalf("zero impairment config moved the schedule: %v vs %v", z.Times, s.Times)
	}

	link, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]*frame.Frame, int(dur*cfg.Display.RefreshHz)+1)
	for i := range frames {
		frames[i] = frame.NewFilled(8, 8, 100)
	}
	if err := link.Transmit(frames); err != nil {
		t.Fatal(err)
	}
	caps, times := s.Start(link.Camera, link.Display, parallel.NewPool(2)).Finish()
	if len(caps) != 3 || !slices.Equal(times, s.Times) {
		t.Fatalf("driver delivered %d captures at %v, want 3 at %v", len(caps), times, s.Times)
	}
	for i, c := range caps {
		if !c.Equal(link.Camera.Capture(link.Display, s.Times[i], i)) {
			t.Fatalf("capture %d differs from a direct capture at its scheduled time", i)
		}
	}
}

// impairedConfig is a moderately hostile stack used by the channel-level
// impairment tests.
func impairedConfig() *impair.Config {
	return &impair.Config{
		Seed:          17,
		ClockDriftPPM: 300,
		StartJitter:   2e-4,
		DropRate:      0.3,
		DupRate:       0.3,
		AmbientRamp:   6,
		FlickerAmp:    3,
		FlickerHz:     100,
		BurstRate:     0.2,
		BurstSigma:    6,
	}
}

// TestImpairedSimulateWorkerInvariance: the fault-injected path must stay
// bit-identical at any worker count — impairments are keyed by capture
// index, never by scheduling.
func TestImpairedSimulateWorkerInvariance(t *testing.T) {
	run := func(workers int) *Result {
		p := testParams()
		m, err := core.NewMultiplexer(p, video.Gray(48, 32), core.NewRandomStream(p.Layout, 5))
		if err != nil {
			t.Fatal(err)
		}
		cfg := quietChannel(48, 32)
		cfg.Workers = workers
		cfg.Camera.Workers = workers
		cfg.Impair = impairedConfig()
		res, err := Simulate(m, 120, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	if len(want.Captures) == 0 {
		t.Fatal("impaired run produced no captures")
	}
	for _, w := range []int{2, 8} {
		got := run(w)
		if len(got.Captures) != len(want.Captures) {
			t.Fatalf("workers=%d: %d captures, want %d", w, len(got.Captures), len(want.Captures))
		}
		for i, c := range got.Captures {
			if math.Abs(got.Times[i]-want.Times[i]) > 0 {
				t.Fatalf("workers=%d: capture %d time %v, want %v", w, i, got.Times[i], want.Times[i])
			}
			if !c.Equal(want.Captures[i]) {
				t.Fatalf("workers=%d: capture %d not bit-identical", w, i)
			}
		}
	}
}

// TestSimulateMatchesTransmitCaptureAll: the bounded, fused Simulate —
// rendering into drive slots and retiring frames behind the earliest
// unfinished capture — must deliver exactly the captures of the unbounded
// public path: render everything, Transmit, then CaptureAll. The cases
// cover jittered non-monotone capture times with drops and duplicates, a
// negative camera start, pixel response (whose states retire with their
// frames) and a strobed backlight, at several pool widths.
func TestSimulateMatchesTransmitCaptureAll(t *testing.T) {
	p := testParams()
	const n = 240 // 2 s at 120 Hz
	kitchen := impairedConfig()
	kitchen.StartJitter = 0.03 // wider than half the capture period: times cross
	cases := map[string]func(*Config){
		"clean":        func(*Config) {},
		"kitchen-sink": func(c *Config) { c.Impair = kitchen },
		"start-0.02":   func(c *Config) { c.CameraStart = -0.02 },
		"response-2ms": func(c *Config) { c.Display.ResponseTime = 0.002 },
		"strobe-0.5":   func(c *Config) { c.Display.StrobeDuty = 0.5 },
	}
	nonMonotone := false
	for name, set := range cases {
		for _, workers := range []int{1, 2, 8} {
			cfg := quietChannel(40, 24)
			cfg.Camera.ReadoutTime = 0.008
			cfg.Workers = workers
			cfg.Camera.Workers = workers
			set(&cfg)
			mux := func() *core.Multiplexer {
				m, err := core.NewMultiplexer(p, video.NewSunRise(48, 32, 3), core.NewRandomStream(p.Layout, 5))
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			got, err := Simulate(mux(), n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			link, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := link.Transmit(mux().Render(n)); err != nil {
				t.Fatal(err)
			}
			caps, times := link.CaptureAll()
			if len(got.Captures) != len(caps) || len(caps) == 0 {
				t.Fatalf("%s workers=%d: Simulate delivered %d captures, CaptureAll %d", name, workers, len(got.Captures), len(caps))
			}
			for i, c := range caps {
				if math.Float64bits(got.Times[i]) != math.Float64bits(times[i]) {
					t.Fatalf("%s workers=%d: capture %d at %v, CaptureAll's at %v", name, workers, i, got.Times[i], times[i])
				}
				for j, v := range c.Pix {
					if math.Float32bits(got.Captures[i].Pix[j]) != math.Float32bits(v) {
						t.Fatalf("%s workers=%d: capture %d pixel %d is %v, CaptureAll's %v", name, workers, i, j, got.Captures[i].Pix[j], v)
					}
				}
				if i > 0 && times[i] < times[i-1] {
					nonMonotone = true
				}
			}
		}
	}
	if !nonMonotone {
		t.Fatal("no case produced non-monotone capture times; the horizon's suffix minima went untested")
	}
}

// TestStreamMatchesFinish: a streaming capturer hands its consumer exactly
// the delivered sequence a collecting one returns from Finish — every
// position once, with the same pixels and exposure start, drops skipped and
// each duplicate at the next position one period later — at several widths
// of a pool that two capturers share, and returns every frame it lent to
// the camera's pool.
func TestStreamMatchesFinish(t *testing.T) {
	p := testParams()
	cfg := quietChannel(40, 24)
	cfg.Impair = impairedConfig()
	link, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMultiplexer(p, video.Gray(48, 32), core.NewRandomStream(p.Layout, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.PushTo(link.Display, 240); err != nil {
		t.Fatal(err)
	}
	want, wantTimes := link.CaptureAll()
	sched := link.schedule(link.Display.Duration())
	if len(want) == len(sched.Times) {
		t.Fatal("no capture dropped or duplicated; the delivery plan went untested")
	}
	for _, workers := range []int{1, 2, 8} {
		pool := parallel.NewPool(workers)
		frames := frame.NewPool()
		var got [2][]*frame.Frame
		var gotTimes [2][]float64
		var streams [2]*Capturer
		for s := range streams {
			ccfg := cfg.Camera
			ccfg.Pool = frames
			cam, err := camera.New(ccfg)
			if err != nil {
				t.Fatal(err)
			}
			var n int
			streams[s], n = sched.Stream(cam, link.Display, pool, func(k int, f *frame.Frame, t float64) {
				got[s][k] = f.Clone()
				gotTimes[s][k] = t
			})
			if n != len(want) {
				t.Fatalf("workers=%d: Stream plans %d deliveries, Finish returned %d", workers, n, len(want))
			}
			got[s] = make([]*frame.Frame, n)
			gotTimes[s] = make([]float64, n)
		}
		for _, c := range streams {
			c.Displayed(240)
		}
		for _, c := range streams {
			if caps, times := c.Finish(); caps != nil || times != nil {
				t.Fatalf("workers=%d: a streaming Finish returned %d captures", workers, len(caps))
			}
		}
		for s := range streams {
			for k, f := range want {
				if got[s][k] == nil {
					t.Fatalf("workers=%d stream %d: position %d never delivered", workers, s, k)
				}
				if math.Float64bits(gotTimes[s][k]) != math.Float64bits(wantTimes[k]) {
					t.Fatalf("workers=%d stream %d: position %d at %v, Finish's at %v", workers, s, k, gotTimes[s][k], wantTimes[k])
				}
				for j, v := range f.Pix {
					if math.Float32bits(got[s][k].Pix[j]) != math.Float32bits(v) {
						t.Fatalf("workers=%d stream %d: position %d pixel %d is %v, Finish's %v", workers, s, k, j, got[s][k].Pix[j], v)
					}
				}
			}
		}
		if st := frames.Stats(); st.Gets != st.Puts {
			t.Fatalf("workers=%d: streaming capturers took %d frames and returned %d", workers, st.Gets, st.Puts)
		}
	}
}

// TestCaptureAllAppliesImpair: CaptureAll on an impaired link runs the
// same schedule, pixel stages and delivery stages as Simulate, so capturing
// an already pushed display matches a simulated run bit for bit — and
// departs from the clean timetable.
func TestCaptureAllAppliesImpair(t *testing.T) {
	p := testParams()
	cfg := quietChannel(48, 32)
	cfg.Impair = impairedConfig()
	mux := func() *core.Multiplexer {
		m, err := core.NewMultiplexer(p, video.Gray(48, 32), core.NewRandomStream(p.Layout, 5))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	want, err := Simulate(mux(), 120, cfg)
	if err != nil {
		t.Fatal(err)
	}
	link, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := mux().PushTo(link.Display, 120); err != nil {
		t.Fatal(err)
	}
	caps, times := link.CaptureAll()
	if len(caps) != len(want.Captures) {
		t.Fatalf("CaptureAll delivered %d captures, Simulate %d", len(caps), len(want.Captures))
	}
	for i, c := range caps {
		if math.Abs(times[i]-want.Times[i]) > 0 || !c.Equal(want.Captures[i]) {
			t.Fatalf("capture %d at %v differs from Simulate's at %v", i, times[i], want.Times[i])
		}
	}
	if clean := NewSchedule(1, cfg.CameraStart, cfg.Camera, nil); slices.Equal(times, clean.Times) {
		t.Fatal("CaptureAll ignored Config.Impair: times match the clean schedule")
	}
}

// TestImpairedPoolRecycling is the drop/duplicate pool-safety test: over
// repeated impaired simulate+recycle cycles with one shared pool, dropped
// captures must go back exactly once (a double Put panics loudly) and
// duplicates must come from and return to the pool — after warmup the pool
// stops allocating entirely, which rules out leaks.
func TestImpairedPoolRecycling(t *testing.T) {
	p := testParams()
	pool := frame.NewPool()
	cycle := func() {
		m, err := core.NewMultiplexer(p, video.Gray(48, 32), core.NewRandomStream(p.Layout, 5))
		if err != nil {
			t.Fatal(err)
		}
		cfg := quietChannel(48, 32)
		cfg.Pool = pool
		cfg.Impair = impairedConfig()
		res, err := Simulate(m, 120, cfg)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[*frame.Frame]bool, len(res.Captures))
		for i, c := range res.Captures {
			if seen[c] {
				t.Fatalf("capture %d aliases an earlier capture: Recycle would double-Put", i)
			}
			seen[c] = true
		}
		res.Recycle(pool)
	}
	cycle()
	cycle()
	warm := pool.Stats()
	if warm.Puts == 0 || warm.Hits == 0 {
		t.Fatalf("pool not exercised during warmup: %+v", warm)
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	steady := pool.Stats()
	if steady.Misses != warm.Misses {
		t.Errorf("impaired steady state allocated %d frame buffers (misses %d -> %d): dropped or duplicated captures leaked",
			steady.Misses-warm.Misses, warm.Misses, steady.Misses)
	}
}

func TestDisplayCameraDefaultsCompose(t *testing.T) {
	cfg := DefaultConfig(640, 360)
	want := display.DefaultConfig()
	want.ResponseTime = 0 // channel default models the strobed FG2421
	if cfg.Display != want {
		t.Fatal("display default mismatch")
	}
	if cfg.Camera != camera.DefaultConfig(640, 360) {
		t.Fatal("camera default mismatch")
	}
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestReceiverMatchesLink builds a link unlike the default on every field
// the receiver derives from it and checks Receiver carries each one, while
// the detection constants and per-decode choices stay DefaultReceiverConfig's.
func TestReceiverMatchesLink(t *testing.T) {
	cfg := DefaultConfig(320, 180)
	cfg.Display.RefreshHz = 144
	cfg.Camera.Exposure = 0.0021
	cfg.Camera.ReadoutTime = 0.0055
	cfg.Workers = 3
	cfg.Pool = frame.NewPool()
	p := testParams()
	got := cfg.Receiver(p)
	def := core.DefaultReceiverConfig(p, 640, 360)
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"Layout", got.Layout, p.Layout},
		{"Tau", got.Tau, p.Tau},
		{"CaptureW", got.CaptureW, 320},
		{"CaptureH", got.CaptureH, 180},
		{"RefreshHz", got.RefreshHz, 144.0},
		{"Exposure", got.Exposure, 0.0021},
		{"ReadoutTime", got.ReadoutTime, 0.0055},
		{"Workers", got.Workers, 3},
		{"Pool", got.Pool, cfg.Pool},
		{"MinConfidence", got.MinConfidence, def.MinConfidence},
		{"AdaptiveBand", got.AdaptiveBand, def.AdaptiveBand},
		{"MinGap", got.MinGap, def.MinGap},
		{"SmoothRadius", got.SmoothRadius, def.SmoothRadius},
		{"Detector", got.Detector, def.Detector},
		{"Pose", got.Pose, def.Pose},
		{"MinCaptureQuality", got.MinCaptureQuality, def.MinCaptureQuality},
		{"RecalibrateEvery", got.RecalibrateEvery, def.RecalibrateEvery},
	} {
		if f.got != f.want {
			t.Errorf("%s = %v, want %v", f.name, f.got, f.want)
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}
