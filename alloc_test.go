package inframe

import (
	"runtime"
	"runtime/debug"
	"testing"

	"inframe/internal/camera"
	"inframe/internal/display"
	"inframe/internal/fleet"
	"inframe/internal/frame"
	"inframe/internal/impair"
	"inframe/internal/video"
)

// Steady-state allocation tests: the frame.Pool refactor's contract is that
// once the pipeline has warmed up, no stage allocates another frame buffer —
// every Get is a pool hit. The pool's Misses counter measures exactly that
// (a miss is the only place a pooled frame buffer is ever allocated), so
// these tests warm the pipeline, snapshot the counter, keep running and
// demand it stays frozen. testing.AllocsPerRun bounds the residual scalar
// traffic of the render loop, with a byte bound far below one frame buffer
// so a single leaked frame (~2 MB at half scale) cannot hide in the slack.

// allocPipeline builds the half-scale paper pipeline with one shared pool
// and Workers=1 (the deterministic sequential path), returning a closure
// that runs one full simulate+decode+recycle cycle.
func allocPipeline(t *testing.T, pool *FramePool) func() {
	t.Helper()
	l, err := ScaledPaperLayout(2)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(l)
	p.Workers = 1
	p.Pool = pool
	m, err := NewMultiplexer(p, GrayVideo(l.FrameW, l.FrameH), NewRandomStream(l, 3))
	if err != nil {
		t.Fatal(err)
	}
	nDisplay := 2 * p.Tau
	cfg := DefaultChannelConfig(640, 360)
	cfg.Workers = 1
	cfg.Pool = pool
	cfg.Camera.Workers = 1
	cfg.Camera.BlurRadius = 1
	rcfg := DefaultReceiverConfig(p, 640, 360)
	rcfg.Exposure = cfg.Camera.Exposure
	rcfg.ReadoutTime = cfg.Camera.ReadoutTime
	rcfg.Workers = 1
	rcfg.Pool = pool
	rx, err := NewReceiver(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	return func() {
		res, err := Simulate(m, nDisplay, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rx.DecodeCaptures(res.Captures, res.Times, res.Exposure, nDisplay/p.Tau)
		res.Recycle(pool)
	}
}

// TestSteadyStateFrameBufferAllocs proves the tentpole claim end to end:
// after two warmup cycles through render → display → capture → decode →
// recycle, further cycles allocate zero frame buffers — the pool serves
// every Get from its free list.
func TestSteadyStateFrameBufferAllocs(t *testing.T) {
	pool := NewFramePool()
	run := allocPipeline(t, pool)
	run()
	run()
	warm := pool.Stats()
	if warm.Hits == 0 {
		t.Fatalf("pool not exercised during warmup: %+v", warm)
	}
	const cycles = 3
	for i := 0; i < cycles; i++ {
		run()
	}
	steady := pool.Stats()
	if steady.Misses != warm.Misses {
		t.Errorf("steady state allocated %d frame buffers over %d cycles (pool misses %d -> %d); the pipeline leaked buffers instead of recycling them",
			steady.Misses-warm.Misses, cycles, warm.Misses, steady.Misses)
	}
	if steady.Gets <= warm.Gets {
		t.Fatalf("steady-state cycles performed no pool Gets: %+v -> %+v", warm, steady)
	}
}

// TestMultiplexerRenderAllocs bounds the render loop itself: one Frame +
// Recycle cycle must stay within a few scalar allocations (parallel fan-out
// closures) and well under a frame buffer's worth of bytes.
func TestMultiplexerRenderAllocs(t *testing.T) {
	l, err := ScaledPaperLayout(2)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(l)
	p.Workers = 1
	pool := NewFramePool()
	p.Pool = pool
	m, err := NewMultiplexer(p, GrayVideo(l.FrameW, l.FrameH), NewRandomStream(l, 3))
	if err != nil {
		t.Fatal(err)
	}
	cycle := 2 * p.Tau
	// Warm one full data cycle so the stream cache and the pool free list
	// are populated before anything is measured.
	for k := 0; k < cycle; k++ {
		m.Recycle(m.Frame(k))
	}
	k := 0
	step := func() {
		m.Recycle(m.Frame(k))
		k = (k + 1) % cycle
	}
	const runs = 24
	allocs := testing.AllocsPerRun(runs, step)
	if allocs > 8 {
		t.Errorf("steady-state render performs %.0f allocs per frame, want <= 8", allocs)
	}
	// Three persistent buffers may miss a cold pool: the video buffer, the
	// cached delta plane, and the one in-flight output frame (which the
	// Recycle cycle then reuses forever).
	if misses := pool.Stats().Misses; misses > 3 {
		t.Errorf("render loop missed the pool %d times, want only the warm vbuf+delta+out trio", misses)
	}
	// Byte bound: the residual allocations must be scalar-sized, not a
	// hidden frame buffer (~2 MB at this scale).
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	frameBytes := uint64(l.FrameW * l.FrameH * 4)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > frameBytes/16 {
		t.Errorf("steady-state render allocates %d B per frame, want < %d (a leaked frame buffer is %d B)",
			perRun, frameBytes/16, frameBytes)
	}
}

// TestSimulateDisplayMemoryFlat: Simulate retires every display frame no
// pending capture can read and renders straight into the freed drive
// slots, so its heap traffic must not grow with the run's duration. A
// display that kept its history would allocate one second of drive frames
// (120·W·H bytes) per simulated second — and four times that again in
// response states at ResponseTime 2 ms; the bound is a tenth of that figure
// per extra simulated second, between a 6 s and a 60 s run at a tiny
// noise-free capture (whose own frames stay small). It measures heap
// traffic, so it runs uninstrumented (verify.sh's alloc stage, CI's allocs
// job) and skips under the race detector, where the 60 s runs take minutes;
// TestSimulateMatchesTransmitCaptureAll races the same retire path.
func TestSimulateDisplayMemoryFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("heap-traffic gate: runs uninstrumented in the alloc stage")
	}
	l, err := ScaledPaperLayout(4)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(l)
	heapPerRun := func(seconds, response float64) uint64 {
		m, err := NewMultiplexer(p, GrayVideo(l.FrameW, l.FrameH), NewRandomStream(l, 3))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultChannelConfig(32, 18)
		cfg.Camera.NoiseSigma = 0
		cfg.Camera.BlurRadius = 0
		cfg.Display.ResponseTime = response
		cfg.Workers = 2
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Simulate(m, int(seconds*cfg.Display.RefreshHz), cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Captures) == 0 {
			t.Fatal("no captures")
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	history := 120 * float64(l.FrameW*l.FrameH) // one second of drive frames, bytes
	for _, response := range []float64{0, 0.002} {
		short, long := heapPerRun(6, response), heapPerRun(60, response)
		perSecond := (float64(long) - float64(short)) / 54
		t.Logf("ResponseTime %v: 6 s run %.1f MB, 60 s run %.1f MB, %.0f B per extra simulated second (%.1f%% of one second of drive history)",
			response, float64(short)/1e6, float64(long)/1e6, perSecond, 100*perSecond/history)
		if perSecond > history/10 {
			t.Errorf("ResponseTime %v: Simulate allocates %.0f B per extra simulated second, want < %.0f (a tenth of the %.0f B drive history of one second)",
				response, perSecond, history/10, history)
		}
	}
}

// TestFleetMemoryFlat: fleet.Run measures every capture the moment it lands
// and hands its frame back, and retires every display frame no member's
// pending capture can read, so its heap traffic must not grow with the run
// by anything like the drive history. A fleet that rendered the whole
// transmission first would allocate one second of drive frames (120·W·H
// bytes) per simulated second, plus every capture its receivers hold until
// they decode; the bound is a tenth of the drive history per extra
// simulated second, between a 2 s and an 8 s run of two receivers. What
// does grow — each receiver's per-capture Block energies and per-frame
// decode, about 1500 Blocks each at any scale — stays small against the
// half-scale panel's drive frames. It measures heap traffic, so it runs
// uninstrumented (verify.sh's alloc stage, CI's allocs job) and skips under
// the race detector; the fleet determinism stage races the same pass.
func TestFleetMemoryFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("heap-traffic gate: runs uninstrumented in the alloc stage")
	}
	l, err := ScaledPaperLayout(2)
	if err != nil {
		t.Fatal(err)
	}
	heapPerRun := func(seconds float64) uint64 {
		cfg := fleet.DefaultConfig(l, 320, 180, 2, 3)
		cfg.Seconds = seconds
		cfg.Workers = 2
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := fleet.Run(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.NeverDecoded == res.N {
			t.Fatal("no receiver decoded; the fleet is not exercising the channel")
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	history := 120 * float64(l.FrameW*l.FrameH) // one second of drive frames, bytes
	short, long := heapPerRun(2), heapPerRun(8)
	perSecond := (float64(long) - float64(short)) / 6
	t.Logf("2 s run %.1f MB, 8 s run %.1f MB, %.0f B per extra simulated second (%.1f%% of one second of drive history)",
		float64(short)/1e6, float64(long)/1e6, perSecond, 100*perSecond/history)
	if perSecond > history/10 {
		t.Errorf("fleet.Run allocates %.0f B per extra simulated second, want < %.0f (a tenth of the %.0f B drive history of one second)",
			perSecond, history/10, history)
	}
}

// TestReceiverMeasureAllocs pins the receive side's scratch reuse: capture
// measurement borrows its smoothing buffers from the pool, so repeated
// measurement of the same capture must stop missing after the first call.
// The projective receiver (pose-tilt30's 1280×720 capture under the
// fixture pose) also borrows its rectified plane, and gathers through the
// warp plan NewReceiver built, never a per-capture one.
func TestReceiverMeasureAllocs(t *testing.T) {
	l, err := ScaledPaperLayout(2)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(l)
	for _, c := range []struct {
		name string
		w, h int
		pose *frame.Homography
	}{
		{"rigid", 640, 360, nil},
		{"projective", 1280, 720, &poseFixture},
	} {
		pool := NewFramePool()
		rcfg := DefaultReceiverConfig(p, c.w, c.h)
		rcfg.Workers = 1
		rcfg.Pool = pool
		rcfg.Pose = c.pose
		rx, err := NewReceiver(rcfg)
		if err != nil {
			t.Fatal(err)
		}
		capFrame := frame.NewFilled(c.w, c.h, 127)
		rx.MeasureCapture(capFrame)
		warm := pool.Stats()
		for i := 0; i < 5; i++ {
			rx.MeasureCapture(capFrame)
		}
		steady := pool.Stats()
		if steady.Misses != warm.Misses {
			t.Errorf("%s: repeated MeasureCapture allocated %d frame buffers, want 0 (misses %d -> %d)",
				c.name, steady.Misses-warm.Misses, warm.Misses, steady.Misses)
		}
	}
}

// TestPoseStageAllocs pins the camera-pose stage's memory: a fixed pose
// warps through one plan per Stack, built on its first posed capture, and
// the clone of the capture it warps from comes from one package-level
// scratch pool. So after a Stack's first capture a posed ApplyFrame
// allocates nothing frame-sized, and a second Stack with the same config —
// channel.Simulate builds one per call — allocates its plan (8 bytes per
// pixel) but no clone plane. It reads the heap, so it runs with the
// garbage collector off (which would empty the scratch pool) on one P (a
// sync.Pool keeps its last Put per P), and skips under the race detector.
func TestPoseStageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("heap gate: runs uninstrumented in the alloc stage")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const w, h = 320, 180
	planeBytes := uint64(w * h * 4)
	planBytes := uint64(w * h * 8)
	cfg := impair.Config{Seed: 5, TiltDeg: 30}
	f := frame.New(w, h)
	apply := func(s *impair.Stack, i int) uint64 {
		for j := range f.Pix {
			f.Pix[j] = float32((j*29 + i) % 256)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.ApplyFrame(f, i, 0.01*float64(i), 0.001)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := impair.New(cfg)
	if b := apply(first, 0); b < planBytes {
		t.Errorf("first posed capture allocated %d B, want at least the %d B plan", b, planBytes)
	}
	for i := 1; i <= 4; i++ {
		if b := apply(first, i); b >= planeBytes/8 {
			t.Errorf("posed capture %d allocated %d B, want nothing frame-sized (a clone plane is %d B)", i, b, planeBytes)
		}
	}
	second := impair.New(cfg)
	if b := apply(second, 0); b < planBytes || b >= planBytes+planeBytes/2 {
		t.Errorf("a second Stack's first posed capture allocated %d B, want its %d B plan and no %d B clone plane",
			b, planBytes, planeBytes)
	}
}

// TestCaptureDrawsNoDisplayPlane pins the row-streamed capture's memory:
// without blur, a capture borrows two frames from the pool — its output
// and one small buffer holding every chunk's row ring (and, under a
// crop, a display row per chunk) — never a display-resolution plane or a
// crop window. So the pool's free list never holds a frame as large as
// the panel, and after one warm capture every borrow is a hit whatever
// the chunks' interleaving. Whole-panel and overscan framings, the
// half-scale panel onto a 640×360 sensor, one and two workers.
func TestCaptureDrawsNoDisplayPlane(t *testing.T) {
	const dw, dh = 960, 540
	dcfg := display.DefaultConfig()
	d, err := display.New(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 6; k++ {
		if err := d.Push(frame.NewFilled(dw, dh, float32(60+30*(k%2)))); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2} {
		for _, overscan := range []bool{false, true} {
			pool := frame.NewPool()
			cfg := camera.DefaultConfig(640, 360)
			cfg.BlurRadius = 0
			cfg.Workers = workers
			cfg.Pool = pool
			if overscan {
				cfg.CropX0, cfg.CropY0, cfg.CropW, cfg.CropH = -24, -14, dw+48, dh+28
			}
			cam, err := camera.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pool.Put(cam.Capture(d, 0.004, 0))
			warm := pool.Stats()
			const captures = 4
			for i := 1; i <= captures; i++ {
				pool.Put(cam.Capture(d, 0.004+0.003*float64(i), i))
			}
			steady := pool.Stats()
			if gets := steady.Gets - warm.Gets; gets != 2*captures {
				t.Errorf("workers=%d overscan=%v: %d captures drew %d pool frames, want two each (the output and the ring buffer)",
					workers, overscan, captures, gets)
			}
			if steady.Misses != warm.Misses {
				t.Errorf("workers=%d overscan=%v: warm captures missed the pool %d times (misses %d -> %d)",
					workers, overscan, steady.Misses-warm.Misses, warm.Misses, steady.Misses)
			}
			if hw := pool.HighWater(); hw.Pixels >= dw*dh {
				t.Errorf("workers=%d overscan=%v: the pool held %d pixels at once, a display-resolution frame is %d",
					workers, overscan, hw.Pixels, dw*dh)
			}
		}
	}
}

// TestSunRiseFrameIntoAllocs: the sun-rise clip renders serially into the
// caller's buffer with its per-column values on the stack, so FrameInto
// allocates nothing. It measures the heap, so it runs uninstrumented
// (verify.sh's alloc stage, CI's allocs job) and skips under the race
// detector.
func TestSunRiseFrameIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("heap gate: runs uninstrumented in the alloc stage")
	}
	s := video.NewSunRise(960, 540, 1)
	f := frame.New(960, 540)
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		s.FrameInto(i, f)
		i += 37
	})
	if allocs != 0 {
		t.Errorf("SunRise.FrameInto allocates %.1f times per frame, want 0", allocs)
	}
}
