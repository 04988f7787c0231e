package inframe

// Benchmark harness: one benchmark per paper artifact (Fig. 3, 5, 6, 7 and
// the ablations), each running the same experiment code that regenerates
// the figure, plus micro-benchmarks for the pipeline's hot stages. Table
// benchmarks report their headline metric via b.ReportMetric so a bench run
// doubles as a figure regeneration at reduced duration; use
// cmd/inframe-bench for the full-duration tables.

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"inframe/internal/benchcmp"
	"inframe/internal/camera"
	"inframe/internal/channel"
	"inframe/internal/core"
	"inframe/internal/display"
	"inframe/internal/experiments"
	"inframe/internal/fleet"
	"inframe/internal/frame"
	"inframe/internal/hvs"
	"inframe/internal/impair"
	"inframe/internal/video"
)

// benchSetup trims durations so a full -bench=. sweep stays tractable.
func benchSetup() experiments.Setup {
	s := experiments.DefaultSetup()
	s.ThroughputSeconds = 1.0
	s.FlickerSeconds = 0.5
	return s
}

// BenchmarkFig3NaiveDesigns regenerates the naive-design flicker comparison.
func BenchmarkFig3NaiveDesigns(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.NaiveDesigns(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].Mean, "inframe-score")
		b.ReportMetric(rows[1].Mean, "naive-score")
	}
}

// BenchmarkFig5Waveform regenerates the smoothing waveform verification.
func BenchmarkFig5Waveform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := experiments.SmoothingWaveform()
		b.ReportMetric(series.Ripple, "lpf-ripple")
	}
}

// BenchmarkFig6Brightness regenerates the flicker-vs-brightness study.
func BenchmarkFig6Brightness(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.FlickerVsBrightness(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].Mean, "score-d50-b200")
	}
}

// BenchmarkFig6Amplitude regenerates the flicker-vs-amplitude study.
func BenchmarkFig6Amplitude(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.FlickerVsAmplitude(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].Mean, "score-d50-t14")
	}
}

// BenchmarkFig7Throughput regenerates the full throughput chart (all twelve
// bars); the reported metric is the paper's headline gray τ=10 rate.
func BenchmarkFig7Throughput(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Throughput(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Report.ThroughputBps/1000, "gray-t10-kbps")
	}
}

// BenchmarkAblationEnvelope regenerates the envelope-shape comparison.
func BenchmarkAblationEnvelope(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.EnvelopeAblation()
		b.ReportMetric(rows[2].PhantomAmp, "stair-phantom")
	}
}

// BenchmarkAblationShutter regenerates the shutter-regime comparison.
func BenchmarkAblationShutter(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ShutterAblation(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].ThroughputBps/1000, "rolling-kbps")
	}
}

// BenchmarkAblationNoise regenerates the sensor-noise sweep.
func BenchmarkAblationNoise(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NoiseSweep(s); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks for the pipeline's hot stages ---

func benchLayout() core.Layout {
	l, err := core.ScaledPaperLayout(2)
	if err != nil {
		panic(err)
	}
	return l
}

// BenchmarkMultiplexFrame measures rendering one 960×540 multiplexed frame.
func BenchmarkMultiplexFrame(b *testing.B) {
	l := benchLayout()
	p := core.DefaultParams(l)
	m, err := core.NewMultiplexer(p, video.Gray(l.FrameW, l.FrameH), core.NewRandomStream(l, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Frame(i % 600)
	}
}

// BenchmarkPushFrame measures rendering one 960×540 multiplexed frame
// straight into a display's drive slot, as channel.Simulate does, on a
// display that retires all but its last frame: gray, where the Block cache
// leaves most pushes with nothing to rewrite and every stale Block is flat,
// the static text card, whose Blocks are part flat and part textured, and
// the sun-rise clip, whose video changes every fourth frame.
func BenchmarkPushFrame(b *testing.B) {
	l := benchLayout()
	for _, c := range []struct {
		name string
		src  video.Source
	}{
		{"gray", video.Gray(l.FrameW, l.FrameH)},
		{"text-card", video.NewTextCard(l.FrameW, l.FrameH, 1)},
		{"sun-rise", video.NewSunRise(l.FrameW, l.FrameH, 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			m, err := core.NewMultiplexer(core.DefaultParams(l), c.src, core.NewRandomStream(l, 1))
			if err != nil {
				b.Fatal(err)
			}
			dcfg := display.DefaultConfig()
			dcfg.ResponseTime = 0
			d, err := display.New(dcfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.PushFrame(d, i%600); err != nil {
					b.Fatal(err)
				}
				d.Retire(math.Inf(1))
			}
		})
	}
}

// BenchmarkCameraCapture measures one rolling-shutter capture of a 960×540
// display: at 640×360 with the default camera (BlurRadius 1, the legacy
// gate config), and at the four benchmark workloads' sensor sizes with
// BlurRadius 0 — the 1.5×, 2× and 3× reductions and the 1280×720
// enlargement.
func BenchmarkCameraCapture(b *testing.B) {
	dcfg := display.DefaultConfig()
	dcfg.ResponseTime = 0
	d, err := display.New(dcfg)
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		if err := d.Push(frame.NewFilled(960, 540, 127)); err != nil {
			b.Fatal(err)
		}
	}
	// recycle hands each capture back to the camera's pool, as the
	// pipeline does after decoding; the default case keeps its history's
	// shape and drops them.
	run := func(b *testing.B, cfg camera.Config, recycle bool) {
		cfg.Pool = frame.NewPool()
		cam, err := camera.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := cam.Capture(d, 0.01, i)
			if recycle {
				cfg.Pool.Put(c)
			}
		}
	}
	b.Run("default", func(b *testing.B) { run(b, camera.DefaultConfig(640, 360), false) })
	for _, s := range [][2]int{{640, 360}, {480, 270}, {320, 180}, {1280, 720}} {
		b.Run(fmt.Sprintf("sensor=%dx%d", s[0], s[1]), func(b *testing.B) {
			cfg := camera.DefaultConfig(s[0], s[1])
			cfg.BlurRadius = 0
			run(b, cfg, true)
		})
	}
}

// BenchmarkSunRiseFrame measures rendering one 960×540 frame of the
// procedural sun-rise clip into a reused buffer, cycling through the 20 s
// loop so the sun's position varies.
func BenchmarkSunRiseFrame(b *testing.B) {
	s := video.NewSunRise(960, 540, 1)
	f := frame.New(960, 540)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.FrameInto(i%600, f)
	}
}

// poseFixture is the homography the blind projective calibration solves
// for the pose-tilt30 benchmark workload (cmd/inframe-perf): the rectified
// 960×540 display plane into the 1280×720 capture.
var poseFixture = frame.Homography{M: [9]float64{
	1.3429949110179933, 0.18357219005196032, -50.49116882968963,
	-0.005645845004421541, 1.2287795018550776, 19.48893833573328,
	-1.738417528699743e-05, 0.0002495741165308103, 0.94095939267444,
}}

// BenchmarkMeasureCapture measures the per-capture Block energy scan of
// the half-scale panel: at a 640×360 capture (default), and at pose-tilt30's
// 1280×720 capture once framed head-on (rigid) and once under the fixture
// pose (registered), where each measurement first rectifies the capture
// through the receiver's warp plan onto the 960×540 display plane. The
// registered/rigid ratio is the price of the rectification. fraction is
// the default capture with a fractional last pixel: the narrowing to 8-bit
// codes fails only at its end, and the float path follows.
func BenchmarkMeasureCapture(b *testing.B) {
	l := benchLayout()
	p := core.DefaultParams(l)
	run := func(b *testing.B, cap *frame.Frame, pose *frame.Homography) {
		rcfg := core.DefaultReceiverConfig(p, cap.W, cap.H)
		rcfg.Pose = pose
		rcfg.Pool = frame.NewPool()
		rcv, err := core.NewReceiver(rcfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rcv.MeasureCapture(cap)
		}
	}
	b.Run("default", func(b *testing.B) { run(b, frame.NewFilled(640, 360, 127), nil) })
	b.Run("fraction", func(b *testing.B) {
		cap := frame.NewFilled(640, 360, 127)
		cap.Pix[len(cap.Pix)-1] = 127.5
		run(b, cap, nil)
	})
	b.Run("rigid", func(b *testing.B) { run(b, frame.NewFilled(1280, 720, 127), nil) })
	b.Run("registered", func(b *testing.B) { run(b, frame.NewFilled(1280, 720, 127), &poseFixture) })
}

// BenchmarkWarp measures pose-tilt30's two per-capture warps of an 8-bit
// 1280×720 capture: the camera-pose impairment's 30° inverse warp onto
// the same size (pose), and the projective receiver's rectification onto
// the 960×540 display plane (rectify). direct is frame.WarpInto, plan a
// prebuilt frame.WarpPlan's Into (bit-identical). pose/stage is the whole
// camera-pose stage as the pipeline runs it: impair.Stack.ApplyFrame of
// the fixed 30° pose with its plan built, on a fresh copy of the capture
// each iteration (copied with the timer stopped).
func BenchmarkWarp(b *testing.B) {
	poseInv, err := impair.PoseHomography(1280, 720, 30, 0, 1).Invert()
	if err != nil {
		b.Fatal(err)
	}
	src := frame.New(1280, 720)
	for i := range src.Pix {
		src.Pix[i] = float32((i * 29) % 256)
	}
	for _, c := range []struct {
		name       string
		h          frame.Homography
		dstW, dstH int
	}{
		{"pose", poseInv, 1280, 720},
		{"rectify", poseFixture, 960, 540},
	} {
		dst := frame.New(c.dstW, c.dstH)
		b.Run(c.name+"/direct", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				frame.WarpInto(src, dst, c.h)
			}
		})
		b.Run(c.name+"/plan", func(b *testing.B) {
			plan := frame.NewWarpPlan(c.h, src.W, src.H, c.dstW, c.dstH)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan.Into(src, dst)
			}
		})
	}
	b.Run("pose/stage", func(b *testing.B) {
		s := impair.New(impair.Config{TiltDeg: 30})
		f := src.Clone()
		s.ApplyFrame(f, 0, 0, 0.001)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			src.CloneInto(f)
			b.StartTimer()
			s.ApplyFrame(f, i, 0, 0.001)
		}
	})
}

// BenchmarkFlickerAmplitude measures one spectral observer evaluation.
func BenchmarkFlickerAmplitude(b *testing.B) {
	o := hvs.DefaultObserver()
	wave := make([]float64, 480)
	for i := range wave {
		if i%4 < 2 {
			wave[i] = 140
		} else {
			wave[i] = 100
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.FlickerAmplitude(wave, 480)
	}
}

// BenchmarkBoxBlur measures the separable smoothing filter on a capture.
func BenchmarkBoxBlur(b *testing.B) {
	f := frame.NewFilled(640, 360, 127)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame.BoxBlur(f, 1)
	}
}

// benchWorkerCounts are the pool sizes the sequential-vs-parallel benchmarks
// compare: 1 (the differential-testing baseline) and GOMAXPROCS.
func benchWorkerCounts() []int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// benchPipeline builds the half-scale link the baseline gate times
// (benchcmp.Pipeline: 960×540 display, 640×360 capture at BlurRadius 0)
// with every stage's worker pool set to w and one shared frame pool
// threaded through every stage — the steady-state configuration the
// allocs/op gate pins.
func benchPipeline(b *testing.B, w int) (*core.Multiplexer, channel.Config, *core.Receiver, int, *frame.Pool) {
	b.Helper()
	m, cfg, rcv, nDisplay, pool, err := benchcmp.Pipeline(2, w)
	if err != nil {
		b.Fatal(err)
	}
	return m, cfg, rcv, nDisplay, pool
}

// BenchmarkEndToEnd measures render + channel simulation + decode at the
// half-scale paper geometry, once sequentially (workers=1) and once with the
// full worker pool — the ratio is the pipeline's parallel speedup. Captures
// are recycled after each decode, so after the first iteration the loop
// allocates no frame buffers (allocs/op tracks everything else).
func BenchmarkEndToEnd(b *testing.B) {
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			m, cfg, rcv, nDisplay, pool := benchPipeline(b, w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := channel.Simulate(m, nDisplay, cfg)
				if err != nil {
					b.Fatal(err)
				}
				rcv.DecodeCaptures(res.Captures, res.Times, res.Exposure, nDisplay/rcv.Config().Tau)
				res.Recycle(pool)
			}
			b.StopTimer()
			s := pool.Stats()
			b.ReportMetric(float64(s.Misses), "pool-misses")
		})
	}
}

// BenchmarkDecodeCaptures isolates the receive side: per-capture energy
// measurement plus the adaptive per-Block decode, sequential vs parallel.
func BenchmarkDecodeCaptures(b *testing.B) {
	m, cfg, _, nDisplay, _ := benchPipeline(b, 0)
	res, err := channel.Simulate(m, nDisplay, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			_, _, rcv, _, _ := benchPipeline(b, w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rcv.DecodeCaptures(res.Captures, res.Times, res.Exposure, nDisplay/rcv.Config().Tau)
			}
		})
	}
}

// BenchmarkFleet measures the broadcast harness: one rendered 4·τ stream
// decoded by the default 8-receiver population sharing a capped pool — the
// same shape the Fleet baseline entries record — and reports receivers/sec,
// the fleet scaling headline.
func BenchmarkFleet(b *testing.B) {
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg, err := benchcmp.FleetConfig(2, w)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				res, err := fleet.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				n = res.N
			}
			b.StopTimer()
			b.ReportMetric(float64(n)/(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e9), "receivers/s")
		})
	}
}

// BenchmarkMessageRoundTrip measures the full stack on a compact layout.
func BenchmarkMessageRoundTrip(b *testing.B) {
	l := Layout{
		FrameW: 192, FrameH: 128,
		PixelSize: 2, BlockSize: 4, GOBSize: 2,
		BlocksX: 24, BlocksY: 16,
	}
	p := DefaultParams(l)
	p.Tau = 8
	msg := []byte("benchmark payload")
	// Benign channel: this benchmark measures the stack's speed; channel
	// robustness at this miniature layout is covered by the test suite.
	cfg := DefaultChannelConfig(l.FrameW, l.FrameH)
	cfg.Camera.ReadoutTime = 0
	cfg.Camera.NoiseSigma = 0.5
	cfg.Camera.BlurRadius = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := NewTransmitter(p, GrayVideo(l.FrameW, l.FrameH), msg)
		if err != nil {
			b.Fatal(err)
		}
		nDisplay := 16*tx.DisplayFramesPerCycle() + 24
		res, err := Simulate(tx.Multiplexer(), nDisplay, cfg)
		if err != nil {
			b.Fatal(err)
		}
		rcfg := DefaultReceiverConfig(p, l.FrameW, l.FrameH)
		rcfg.Exposure = cfg.Camera.Exposure
		rcfg.ReadoutTime = cfg.Camera.ReadoutTime
		rx, err := NewMessageReceiver(rcfg)
		if err != nil {
			b.Fatal(err)
		}
		rx.Ingest(res, nDisplay/p.Tau)
		if !rx.Complete() {
			b.Fatal("message incomplete")
		}
	}
}
