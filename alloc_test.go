package inframe

import (
	"math"
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
// Recycle cycle, and one PushFrame onto a display that retires behind it,
// must stay within a few scalar allocations (parallel fan-out closures) and
// well under a frame buffer's worth of bytes.
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
	// Two persistent buffers may miss a cold pool: the video buffer and the
	// one in-flight output frame (which the Recycle cycle then reuses
	// forever). The Block amplitudes and chess rows are plain slices.
	if misses := pool.Stats().Misses; misses > 2 {
		t.Errorf("render loop missed the pool %d times, want only the warm vbuf+out pair", misses)
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

	// The drive path: PushFrame copies a drive plane into a display that
	// keeps only its last frame, as channel.Simulate's does behind its
	// captures, so its one free slot is reused forever.
	pushPool := NewFramePool()
	p.Pool = pushPool
	pm, err := NewMultiplexer(p, GrayVideo(l.FrameW, l.FrameH), NewRandomStream(l, 3))
	if err != nil {
		t.Fatal(err)
	}
	dcfg := display.DefaultConfig()
	dcfg.ResponseTime = 0
	d, err := display.New(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	push := func() {
		if err := pm.PushFrame(d, k); err != nil {
			t.Fatal(err)
		}
		d.Retire(math.Inf(1))
		k = (k + 1) % cycle
	}
	k = 0
	for i := 0; i < cycle; i++ {
		push()
	}
	warm := pushPool.Stats().Misses
	if allocs := testing.AllocsPerRun(runs, push); allocs > 8 {
		t.Errorf("steady-state PushFrame performs %.0f allocs per frame, want <= 8", allocs)
	}
	if misses := pushPool.Stats().Misses; misses != warm {
		t.Errorf("steady-state PushFrame missed the pool %d times after warm-up, want 0", misses-warm)
	}
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		push()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > uint64(l.FrameW*l.FrameH)/16 {
		t.Errorf("steady-state PushFrame allocates %d B per frame, want < %d (a drive slot is %d B)",
			perRun, l.FrameW*l.FrameH/16, l.FrameW*l.FrameH)
	}
}

// TestSimulateReusesDriveSlots: Simulate closes its private display once
// its captures are done, handing the drive slots on, so a second Simulate
// of the same panel draws every slot it needs and allocates none. The
// multiplexer is reused (its drive planes exist already) and the captures
// go back to the shared pool, so what is left of the second run's heap is
// small against one 518 KB slot of the half-scale panel. It reads the heap,
// so it runs with the garbage collector off (which would empty the slot
// pool) on one P (a sync.Pool keeps its objects per P), and skips under the
// race detector.
func TestSimulateReusesDriveSlots(t *testing.T) {
	if raceEnabled {
		t.Skip("heap gate: runs uninstrumented in the alloc stage")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	l, err := ScaledPaperLayout(2)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewFramePool()
	p := DefaultParams(l)
	p.Pool = pool
	m, err := NewMultiplexer(p, GrayVideo(l.FrameW, l.FrameH), NewRandomStream(l, 3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultChannelConfig(32, 18)
	cfg.Camera.NoiseSigma = 0
	cfg.Camera.BlurRadius = 0
	cfg.Pool = pool
	simulate := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Simulate(m, 60, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		res.Recycle(pool)
		return after.TotalAlloc - before.TotalAlloc
	}
	slot := uint64(l.FrameW * l.FrameH)
	first := simulate()
	if first < 2*slot {
		t.Fatalf("first Simulate allocated %d B, want at least its drive slots (%d B each)", first, slot)
	}
	second := simulate()
	t.Logf("first Simulate %d B, second %d B (a drive slot is %d B)", first, second, slot)
	if second >= slot {
		t.Errorf("second Simulate allocated %d B, want less than one %d B drive slot (the first allocated %d B)",
			second, slot, first)
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

// TestEnergyScanAllocs pins the integer energy scan's heap: the shutter
// weights, the capture's 8-bit codes, the window-sum rows and the Block
// list come from one package-level scratch pool every receiver shares, so a
// warm rigid 640×360 MeasureCaptureAt with the timing model on allocates
// its two result slices and nothing else. It reads allocation counts with
// the garbage collector off (which would empty the scratch pool), and
// skips under the race detector.
func TestEnergyScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("heap gate: runs uninstrumented in the alloc stage")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	l, err := ScaledPaperLayout(2)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := DefaultReceiverConfig(DefaultParams(l), 640, 360)
	rcfg.Workers = 1
	rcfg.Exposure, rcfg.ReadoutTime = 0.0007, 0.008
	rx, err := NewReceiver(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	f := frame.New(640, 360)
	for i := range f.Pix {
		f.Pix[i] = float32((i * 29) % 256)
	}
	rx.MeasureCaptureAt(f, 0.01)
	allocs := testing.AllocsPerRun(20, func() {
		rx.MeasureCaptureAt(f, 0.01)
	})
	if allocs != 2 {
		t.Errorf("a warm MeasureCaptureAt allocates %.1f times, want 2 (its scores and qualities)", allocs)
	}
}

// TestWarpPlanAllocs pins the integer warp's heap: an integral capture's
// 8-bit codes are narrowed into pooled scratch, so a warm WarpPlan.Into of
// pose-tilt30's 1280×720 capture onto the 960×540 display plane allocates
// nothing. It reads allocation counts with the garbage collector off, and
// skips under the race detector.
func TestWarpPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("heap gate: runs uninstrumented in the alloc stage")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	src := frame.New(1280, 720)
	for i := range src.Pix {
		src.Pix[i] = float32((i * 29) % 256)
	}
	dst := frame.New(960, 540)
	plan := frame.NewWarpPlan(poseFixture, 1280, 720, 960, 540)
	plan.Into(src, dst)
	allocs := testing.AllocsPerRun(10, func() {
		plan.Into(src, dst)
	})
	if allocs != 0 {
		t.Errorf("a warm WarpPlan.Into of an integral capture allocates %.1f times, want 0", allocs)
	}
}

// TestPoseStageAllocs pins the camera-pose stage's memory: the stage warps
// an integral capture in place and, as the stack's last pixel stage,
// writes its 8-bit codes in the same pass, so it needs no copy of the
// capture and takes none from any pool; the one scratch it reads is the
// warp's own 8-bit copy of the capture, which frame keeps pooled
// (TestWarpPlanAllocs). A fixed pose's plan, 8 bytes per pixel, is built
// on the first posed capture of a new size and pose and memoized for the
// package (a capture at another pose first evicts whatever an earlier test
// left there). So after that capture a posed ApplyFrame allocates nothing
// at all, fixed or jittered; once two collections have emptied every pool
// it allocates that 8-bit copy and nothing else, so no plane hides in a
// pool; and a second Stack with the same config — channel.Simulate builds
// one per call — allocates nothing either: it warps through the memoized
// plan. It reads the heap, so it runs with the garbage collector off
// (which would empty frame's pool) on one P (a sync.Pool keeps its last
// Put per P), and skips under the race detector.
func TestPoseStageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("heap gate: runs uninstrumented in the alloc stage")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const w, h = 320, 180
	codesBytes := uint64(w * h)
	planBytes := uint64(w * h * 8)
	cfg := impair.Config{Seed: 5, TiltDeg: 30}
	f := frame.New(w, h)
	apply := func(s *impair.Stack, i int) (bytes, mallocs uint64) {
		for j := range f.Pix {
			f.Pix[j] = float32((j*29 + i) % 256)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.ApplyFrame(f, i, 0.01*float64(i), 0.001)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	apply(impair.New(impair.Config{Seed: 5, TiltDeg: 20}), 0)
	first := impair.New(cfg)
	if b, _ := apply(first, 0); b < planBytes {
		t.Errorf("first posed capture allocated %d B, want at least the %d B plan", b, planBytes)
	}
	jittered := impair.New(impair.Config{Seed: 5, TiltDeg: 30, RotateDeg: 4, PoseJitterDeg: 2})
	apply(jittered, 0)
	for i := 1; i <= 4; i++ {
		for _, s := range []struct {
			name  string
			stack *impair.Stack
		}{{"fixed", first}, {"jittered", jittered}} {
			if b, n := apply(s.stack, i); b != 0 || n != 0 {
				t.Errorf("%s posed capture %d allocated %d B in %d objects, want nothing", s.name, i, b, n)
			}
		}
	}
	runtime.GC() // a sync.Pool survives one collection in its victim cache
	runtime.GC()
	if b, _ := apply(first, 5); b < codesBytes || b >= codesBytes*3/2 {
		t.Errorf("a posed capture on emptied pools allocated %d B, want the %d B 8-bit copy and nothing else (a float plane is %d B)",
			b, codesBytes, 4*codesBytes)
	}
	second := impair.New(cfg)
	if b, n := apply(second, 0); b != 0 || n != 0 {
		t.Errorf("a second Stack's first posed capture allocated %d B in %d objects, want nothing (a plan is %d B)",
			b, n, planBytes)
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
				pool.Put(cam.Capture(d, 0.004+float64(0.003*float64(i)), i))
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

// TestCaptureNoiseAllocs pins the sensor noise's heap: a capture's read
// noise draws from pooled generator state (detrng.Stream), so once a
// camera has captured, a noisy capture allocates exactly what the same
// capture without noise does. Seeding a math/rand source per capture
// allocated a 4.9 KB generator every time. It reads the heap, so it runs
// with the garbage collector off (which would empty the state pool) on one
// P (a sync.Pool keeps its objects per P), and skips under the race
// detector.
func TestCaptureNoiseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("heap gate: runs uninstrumented in the alloc stage")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	d, err := display.New(display.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		if err := d.Push(frame.NewFilled(320, 180, float32(90+40*(k%2)))); err != nil {
			t.Fatal(err)
		}
	}
	// captureBytes is the heap one warm capture allocates on a camera of
	// the given noise.
	captureBytes := func(sigma float64) uint64 {
		pool := frame.NewPool()
		cfg := camera.DefaultConfig(160, 90)
		cfg.BlurRadius = 0
		cfg.Workers = 1
		cfg.NoiseSigma = sigma
		cfg.Pool = pool
		cam, err := camera.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pool.Put(cam.Capture(d, 0.004, 0))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pool.Put(cam.Capture(d, 0.007, 1))
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	quiet, noisy := captureBytes(0), captureBytes(2.5)
	t.Logf("warm capture: %d B without noise, %d B with", quiet, noisy)
	if noisy != quiet {
		t.Errorf("a warm noisy capture allocated %d B, the same capture without noise %d B: the noise draws allocate", noisy, quiet)
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

// TestImpairDrawAllocs pins the impairment stack's per-capture draws: a
// capture's start jitter (CaptureTime) and its drop/dup decision (Copies)
// take their generator state from a pool (detrng.Stream), so on a warm
// kitchen-sink Stack they allocate nothing, where a math/rand generator
// per draw costs about 5 KB. It reads the heap with the garbage collector
// off (which would empty the state pool), and skips under the race
// detector.
func TestImpairDrawAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("heap gate: runs uninstrumented in the alloc stage")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := impair.New(impair.Config{
		Seed: 11, ClockDriftPPM: 300, StartJitter: 1e-4, DropRate: 0.1,
		DupRate: 0.1, AmbientRamp: 6, FlickerAmp: 3, FlickerHz: 100,
		GainAmp: 0.02, GainHz: 0.7, BurstRate: 0.05, BurstSigma: 5,
	})
	period := s.Period(1.0 / 30)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		s.CaptureTime(i, 0.01, period)
		s.Copies(i)
		i++
	})
	if allocs != 0 {
		t.Errorf("a warm CaptureTime + Copies allocates %.1f times per capture, want 0", allocs)
	}
}
