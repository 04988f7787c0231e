package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	imetrics "inframe/internal/metrics"
)

const (
	// warmups untimed episodes follow every set-up.
	warmups = 2
	// episodeSeconds is the simulated length of one episode.
	episodeSeconds = float64(displayFrames) / 120
)

// guard runs one episode, turning a panic into an error so one bad episode
// is counted as failed instead of ending the run.
func guard(fn func() (*episode, error)) (ep *episode, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// outcomeOf scores an episode, or records why it produced nothing.
func (b *bench) outcomeOf(ep *episode, err error) outcome {
	if err != nil {
		return outcome{fail: err.Error()}
	}
	return b.score(ep)
}

// warm sets up the workload and runs its untimed warm-up episodes.
func warm(w spec, seed int64, tr *tracer) (*bench, error) {
	b, err := setup(w, tr)
	if err != nil {
		return nil, err
	}
	for e := 0; e < warmups; e++ {
		ep, err := guard(func() (*episode, error) { return b.run(seed + int64(e)) })
		if o := b.outcomeOf(ep, err); o.fail != "" {
			return nil, fmt.Errorf("warm-up episode %d: %s", e, o.fail)
		}
	}
	return b, nil
}

// untracedPass sets up w.setups times, then runs episodes back to back — a
// closed loop with one client — until both w.quality episodes and seconds of
// wall time have passed, and reports the end-to-end metrics. Times are
// reported at the reference speed (see speedGauge); the wall times as
// measured follow as extras.
func untracedPass(w spec, seed int64, seconds float64, log io.Writer) (*report, error) {
	gauge := newSpeedGauge()
	allocs := newAllocGauge()
	var setupS imetrics.Series
	var b *bench
	for i := 0; i < w.setups; i++ {
		gauge.sample()
		start := time.Now()
		nb, err := warm(w, seed, nil)
		if err != nil {
			return nil, err
		}
		setupS.Add(time.Since(start).Seconds())
		b = nb
	}
	gauge.sample()
	setupScale := gauge.scale(1)
	gauge.reset()
	runtime.GC()
	rep := &report{workload: w.name, correct: true}
	var wall, norm imetrics.Series
	var busy, availSum, berSum float64
	var allocBytes uint64
	wrong, decided := 0, 0
	start := time.Now()
	for e := warmups; rep.attempted < w.quality || time.Since(start).Seconds() < seconds; e++ {
		gauge.sample()
		a0 := allocs.read()
		t0 := time.Now()
		ep, err := guard(func() (*episode, error) { return b.run(seed + int64(e)) })
		dt := time.Since(t0).Seconds()
		allocBytes += allocs.read() - a0
		o := b.outcomeOf(ep, err)
		wall.Add(dt)
		norm.Add(gauge.scaleLast(dt))
		busy += dt
		rep.attempted++
		if o.fail != "" {
			rep.failed++
			fmt.Fprintf(log, "episode %d failed: %s\n", e, o.fail)
		}
		if rep.attempted <= w.quality {
			availSum += o.avail
			berSum += o.ber
			wrong += o.wrong
			decided += o.decided
		}
	}
	n := wall.N()
	ber := berSum / float64(w.quality)
	if w.fleet == 0 && decided > 0 {
		ber = float64(wrong) / float64(decided)
	}
	simS := float64(n*w.receivers()) * episodeSeconds
	rep.add("setup_s", "s", setupScale*setupS.Percentile(0.5), fmt.Sprintf("median of %d set-ups, each with %d warm-up episodes", w.setups, warmups))
	rep.add("sim_speed", "sim_s/s", simS/gauge.scale(busy), fmt.Sprintf("%d receiver(s) x %g simulated s per episode", w.receivers(), episodeSeconds))
	rep.add("avail", "fraction", availSum/float64(w.quality), fmt.Sprintf("first %d episodes", w.quality))
	rep.add("episode_alloc_mb", "MB", float64(allocBytes)/1e6/float64(n), "heap allocated per episode")
	rep.extra("episode_s_p50", "s", norm.Percentile(0.5), true, fmt.Sprintf("n=%d", n))
	rep.extra("episode_s_p75", "s", norm.Percentile(0.75), true, fmt.Sprintf("n=%d", n))
	rep.extra("ber", "fraction", ber, true, fmt.Sprintf("first %d episodes", w.quality))
	rep.extra("failed_frac", "fraction", float64(rep.failed)/float64(rep.attempted), true, "")
	rep.extra("rss_peak_mb", "MB", peakRSSMB(), true, "peak RSS of this process, gauge included")
	rep.extra("speed_scale", "x", gauge.scale(1), true, fmt.Sprintf("reference %g s / mean kernel time, timed episodes", refSeconds))
	rep.extra("wall_setup_s", "s", setupS.Percentile(0.5), true, "as measured")
	rep.extra("wall_sim_speed", "sim_s/s", simS/busy, true, "as measured")
	rep.extra("wall_episode_s_p50", "s", wall.Percentile(0.5), true, "as measured")
	rep.extra("register.calibrate_s", "s", b.calibrateS, w.calibrate, "last set-up's blind pose solve, as measured")
	if rep.failed > 0 || ber > w.maxBER {
		rep.correct = false
	}
	return rep, nil
}

// layerCounts accumulates the traced episodes' counters.
type layerCounts struct {
	episodes             int
	blocks, blocksSkip   int64
	video, videoSkip     int64
	head, headSkip       int64
	scheduled, delivered int
	scored, excluded     int
	gapFrames            int
	projective           int
	cornerPx             float64
	poolGets, poolMisses uint64
	highWaterPix         int64
	neverDecoded         int
	ttfd                 imetrics.Series
}

func (c *layerCounts) add(o outcome, ep *episode) {
	c.episodes++
	c.blocks += o.render.Blocks
	c.blocksSkip += o.render.BlocksSkipped
	c.video += o.render.VideoRefreshes
	c.videoSkip += o.render.VideoSkipped
	c.head += o.render.HeadroomBlocks
	c.headSkip += o.render.HeadroomSkipped
	c.scheduled += o.scheduled
	c.delivered += o.delivered
	c.scored += o.scored
	c.excluded += o.excluded
	c.gapFrames += o.gapFrames
	if o.projective {
		c.projective++
	}
	c.cornerPx += o.cornerPx
	c.poolGets += ep.poolGets
	c.poolMisses += ep.poolMisses
	c.highWaterPix = max(c.highWaterPix, ep.highWaterPix)
	c.neverDecoded += o.neverDecoded
	for _, t := range o.ttfd {
		c.ttfd.Add(t)
	}
}

// tracedPass sets up once with the tracer attached, then alternates an
// untraced and a traced run of the same episode until both w.pairs pairs
// and seconds of wall time have passed. Each pair must decode identically.
func tracedPass(w spec, seed int64, seconds float64, log io.Writer) (*report, *tracer, error) {
	tr := newTracer()
	gauge := newSpeedGauge()
	gauge.sample()
	b, err := warm(w, seed, tr)
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	rep := &report{workload: w.name, trace: 1, correct: true}
	var untraced, traced imetrics.Series
	var counts layerCounts
	cpu := newCPUMeter()
	start := time.Now()
	for e := warmups; rep.attempted < w.pairs || time.Since(start).Seconds() < seconds; e++ {
		es := seed + int64(e)
		gauge.sample()
		t0 := time.Now()
		ep, err := guard(func() (*episode, error) { return b.run(es) })
		untraced.Add(time.Since(t0).Seconds())
		o := b.outcomeOf(ep, err)

		tr.episode = e
		t1 := time.Now()
		tep, terr := guard(func() (*episode, error) { return b.traced(es, tr) })
		traced.Add(time.Since(t1).Seconds())
		tr.episode = -1
		to := b.outcomeOf(tep, terr)

		rep.attempted++
		fail := o.fail
		switch {
		case fail != "":
		case to.fail != "":
			fail = "traced: " + to.fail
		case to.digest != o.digest:
			fail = "traced decode differs from untraced"
		case to.render != o.render:
			fail = "traced RenderStats differ from untraced"
		}
		if fail != "" {
			rep.failed++
			rep.correct = false
			fmt.Fprintf(log, "episode %d failed: %s\n", e, fail)
			continue
		}
		counts.add(to, tep)
	}
	gcFrac := cpu.gcFrac()
	if counts.episodes == 0 {
		return rep, tr, nil
	}
	rep.layers(tr, b, &counts, traced, untraced, gauge.scale(1))
	rep.add("runtime.gc_cpu_frac", "fraction", gcFrac, "GC share of busy CPU over the pass")
	return rep, tr, nil
}

// layers derives the per-layer metrics from the spans and counters. Times
// are scaled by k to the reference speed, like the end-to-end times.
func (r *report) layers(tr *tracer, b *bench, c *layerCounts, traced, untraced imetrics.Series, k float64) {
	all := tr.totals(false)
	eps := tr.totals(true)
	n := float64(c.episodes)
	perEp := func(names ...string) float64 {
		var ns int64
		for _, name := range names {
			if lt := eps[name]; lt != nil {
				ns += lt.selfNs
			}
		}
		return k * float64(ns) / 1e6 / n
	}
	allocKB := func(names ...string) float64 {
		var bytes int64
		for _, name := range names {
			if lt := eps[name]; lt != nil {
				bytes += lt.selfAlloc
			}
		}
		return float64(bytes) / 1024 / n
	}
	perCall := func(name string) (float64, bool) {
		lt := all[name]
		if lt == nil {
			return 0, false
		}
		return k * float64(lt.selfNs) / 1e6 / float64(lt.calls), true
	}
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	mux := []string{"core.mux.new", "core.mux.frame", "core.mux.recycle"}
	rcv := []string{"core.receiver.new", "core.receiver.decode", "core.receiver.push"}
	r.add("video.frame_ms", "ms", perEp("video.frame"), "per episode")
	r.add("core.mux.frame_ms", "ms", perEp(mux...), "per episode, self time")
	r.add("core.mux.block_skip_rate", "fraction", ratio(c.blocksSkip, c.blocks), "")
	r.add("core.mux.video_skip_rate", "fraction", ratio(c.videoSkip, c.video+c.videoSkip), "")
	r.add("core.mux.headroom_skip_rate", "fraction", ratio(c.headSkip, c.head+c.headSkip), "")
	r.add("core.mux.alloc_kb", "KB", allocKB(mux...), "per episode")
	r.add("display.push_ms", "ms", perEp("display.new", "display.push"), "per episode")
	r.add("display.alloc_kb", "KB", allocKB("display.new", "display.push"), "per episode")
	r.add("camera.capture_ms", "ms", perEp("channel.new", "camera.new", "camera.capture"), "per episode")
	r.add("camera.captures", "count", float64(c.delivered)/n, "delivered per episode")
	r.add("camera.alloc_kb", "KB", allocKB("channel.new", "camera.new", "camera.capture"), "per episode")
	r.add("impair.delivered_frac", "fraction", ratio(int64(c.delivered), int64(c.scheduled)), "delivered over scheduled captures")
	r.add("core.receiver.decode_ms", "ms", perEp("core.receiver.decode", "core.receiver.push"), "per episode, batch or online")
	measure, _ := perCall("core.receiver.measure")
	r.add("core.receiver.measure_ms", "ms", measure, "per capture, post-pass")
	newMs, _ := perCall("core.receiver.new")
	r.add("core.receiver.new_ms", "ms", newMs, "per construction, set-up included")
	r.add("core.receiver.excluded_frac", "fraction", ratio(int64(c.excluded), int64(c.scored)), "excluded over scored captures")
	r.add("core.receiver.gap_frames", "count", float64(c.gapFrames)/n, "per episode")
	r.add("core.receiver.alloc_kb", "KB", allocKB(rcv...), "per episode")
	r.add("register.projective", "fraction", float64(c.projective)/n, "episodes decoded through the projective path")
	r.add("register.corner_px", "px", c.cornerPx/n, "solved pose's corner offset from frontal")
	warp, _ := perCall("frame.warp")
	r.add("frame.warp_ms", "ms", warp, "per capture, post-pass")
	r.add("frame.pool.miss_rate", "fraction", ratio(int64(c.poolMisses), int64(c.poolGets)), "traced episodes")
	r.add("frame.pool.high_water_mb", "MB", float64(c.highWaterPix)*4/1e6, "")
	root := eps["episode"]
	var rootNs int64
	for _, s := range tr.spans {
		if s.Name == "episode" {
			rootNs += s.EndNs - s.StartNs
		}
	}
	r.add("channel.overhead_frac", "fraction", float64(root.selfNs)/float64(rootNs), "1 - layer self time / traced episode time")
	tp50, up50 := traced.Percentile(0.5), untraced.Percentile(0.5)
	r.add("trace.overhead_frac", "fraction", tp50/up50-1, "traced p50 / untraced p50 - 1; includes the lost render/capture overlap")

	r.extra("impair.frame_ms", "ms", perEp("impair.frame"), eps["impair.frame"] != nil, "per episode")
	r.extra("impair.sequence_ms", "ms", perEp("impair.sequence"), eps["impair.sequence"] != nil, "per episode")
	r.extra("core.receiver.push_ms", "ms", perEp("core.receiver.push"), b.streaming, "per episode")
	calib, ok := perCall("register.calibrate")
	r.extra("register.calibrate_s", "s", calib/1e3, ok, "set-up")
	fl := b.fleet > 0
	run := k * untraced.Percentile(0.5) * 1e3
	render := perEp("video.frame", "core.mux.new", "core.mux.frame", "core.mux.recycle", "display.new", "display.push")
	workers := min(runtime.GOMAXPROCS(0), max(b.fleet, 1))
	r.extra("fleet.run_ms", "ms", run, fl, "untraced fleet.Run p50")
	r.extra("fleet.render_ms", "ms", render, fl, "traced render of the same transmission")
	r.extra("fleet.receiver_ms", "ms", (run-render)*float64(workers)/float64(max(b.fleet, 1)), fl, "derived: (run - render) * min(W,N) / N")
	r.extra("fleet.never_decoded", "count", float64(c.neverDecoded)/n, fl, "receivers per episode")
	r.extra("fleet.ttfd_p50_s", "s", c.ttfd.Percentile(0.5), fl && c.ttfd.N() > 0, "simulated seconds")
}

// cpuMeter reads the runtime's CPU-class estimates at construction and on
// demand.
type cpuMeter struct {
	s    [3]metrics.Sample
	gc0  float64
	busy float64
}

func newCPUMeter() *cpuMeter {
	m := &cpuMeter{}
	m.s[0].Name = "/cpu/classes/gc/total:cpu-seconds"
	m.s[1].Name = "/cpu/classes/total:cpu-seconds"
	m.s[2].Name = "/cpu/classes/idle:cpu-seconds"
	m.gc0, m.busy = m.read()
	return m
}

func (m *cpuMeter) read() (gc, busy float64) {
	metrics.Read(m.s[:])
	return m.s[0].Value.Float64(), m.s[1].Value.Float64() - m.s[2].Value.Float64()
}

// gcFrac is the GC's share of busy CPU time since construction.
func (m *cpuMeter) gcFrac() float64 {
	gc, busy := m.read()
	if !(busy > m.busy) {
		return 0
	}
	return (gc - m.gc0) / (busy - m.busy)
}

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// allocGauge reads the runtime's cumulative heap allocation.
type allocGauge struct{ s [1]metrics.Sample }

func newAllocGauge() *allocGauge {
	g := &allocGauge{}
	g.s[0].Name = "/gc/heap/allocs:bytes"
	return g
}

func (g *allocGauge) read() uint64 {
	metrics.Read(g.s[:])
	return g.s[0].Value.Uint64()
}
