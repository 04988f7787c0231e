package main

import (
	"fmt"
	"math"
	"time"

	"inframe/internal/camera"
	"inframe/internal/channel"
	"inframe/internal/core"
	"inframe/internal/display"
	"inframe/internal/experiments"
	"inframe/internal/fleet"
	"inframe/internal/frame"
	"inframe/internal/impair"
	"inframe/internal/register"
	"inframe/internal/video"
)

const (
	// displayFrames is one episode: one simulated second at 120 Hz, ten
	// data frames at τ=12.
	displayFrames = 120
	// streamWindow is the online receiver's calibration window in data
	// frames.
	streamWindow = 12
	// calibCaptures is how many leading captures the pose calibration uses.
	calibCaptures = 10
	// realisationSeed fixes the parts of a workload that stay the same in
	// every episode and run: the video clip, the impairment draw, the pose
	// calibration transmission and the fleet's audience. Drawing them per episode moves
	// mean availability across seeds by 5–17%, so avail would measure the
	// draw rather than the decoder; the seed varies payload and sensor noise.
	realisationSeed = 1
	// postPassCaptures bounds the per-capture measure and warp post-passes
	// to this many used captures per receiver and episode.
	postPassCaptures = 4
)

// spec is one workload: the inputs it generates from the seed and the
// receiver that decodes them.
type spec struct {
	name string
	why  string
	// sunrise selects the sun-rise clip instead of uniform gray 180.
	sunrise bool
	// capW, capH is the capture resolution (fleet: the population's base).
	capW, capH int
	// impair is the fault stack every episode runs through (nil = clean
	// channel). Its seed is part of the workload, not of the episode, so
	// each episode sees the same impairment realisation.
	impair *impair.Config
	// streaming decodes online, one StreamingReceiver.Push per capture.
	streaming bool
	// minQuality is the receiver's MinCaptureQuality gate.
	minQuality float64
	// calibrate solves the camera pose blindly during set-up.
	calibrate bool
	// fleet is the broadcast population size; 0 means a single receiver
	// through channel.Simulate.
	fleet int
	// quality is how many timed episodes, counted from the first, avail and
	// ber are computed over; a run always times at least this many so the
	// quality numbers depend on the seed alone.
	quality int
	// maxBER is the confident-bit error rate above which the decodes count
	// as wrong: far below a coin flip, above what the workload's channel
	// costs.
	maxBER float64
	// setups is how many times the untraced pass sets up; setup_s is the
	// median. Pose sets up twice, as each set-up solves the pose blindly.
	setups int
	// pairs is the least number of untraced/traced episode pairs the traced
	// pass runs.
	pairs int
	// pose, when set, replaces the blind pose solve (tests use a solved
	// fixture to skip it).
	pose *frame.Homography
}

// receivers is how many receivers decode each episode.
func (s spec) receivers() int { return max(s.fleet, 1) }

var workloads = []spec{
	{
		name: "clean-gray",
		why:  "static gray at the Fig. 7 point with no impairments: camera and display dominate while the render cache skips most Block rewrites",
		capW: 640, capH: 360,
		quality: 18, setups: 3, pairs: 3, maxBER: 0.01,
	},
	{
		name:    "live-video-impaired",
		why:     "sun-rise clip under the kitchen-sink impairments, decoded online per capture: full-frame video bypasses the render cache and the impair stack runs",
		sunrise: true,
		capW:    640, capH: 360,
		impair:     kitchenSink(realisationSeed),
		streaming:  true,
		minQuality: 0.1,
		quality:    10,
		setups:     3,
		pairs:      3,
		maxBER:     0.35,
	},
	{
		name: "pose-tilt30",
		why:  "30 degree camera tilt at native 1280x720: blind projective calibration in set-up and rectified decode, the only workload where register and warp matter",
		capW: 1280, capH: 720,
		impair:     &impair.Config{Seed: realisationSeed, TiltDeg: 30},
		minQuality: 0.1,
		calibrate:  true,
		quality:    8,
		setups:     2,
		pairs:      3,
		maxBER:     0.35,
	},
	{
		name: "fleet-8",
		why:  "one render decoded by an 8-receiver population sharing a capped pool: per-receiver capture and decode dominate",
		capW: 640, capH: 360,
		fleet:   8,
		quality: 12,
		setups:  3,
		pairs:   3,
		maxBER:  0.3,
	},
}

func workloadByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// kitchenSink is the robustness sweep's stacked-impairment scenario.
func kitchenSink(seed int64) *impair.Config {
	for _, sc := range experiments.RobustnessScenarios(seed) {
		if sc.Name == "kitchen-sink" {
			return sc.Impair
		}
	}
	panic("inframe-perf: experiments lost the kitchen-sink scenario")
}

// bench is a workload after set-up: everything built before the first
// episode and shared by all of them.
type bench struct {
	spec
	layout core.Layout
	params core.Params
	pool   *frame.Pool
	src    video.IntoSource
	rcfg   core.ReceiverConfig
	// rcv is the batch receiver, built once; nil for the streaming and
	// fleet workloads, whose receivers are built per episode.
	rcv *core.Receiver
	// warp is the geometry of the warp post-pass: the solved pose, or the
	// frontal display→capture mapping.
	warp frame.Homography
	// calibrateS is the blind pose solve's wall time.
	calibrateS float64
}

func setup(s spec, tr *tracer) (*bench, error) {
	l, err := core.ScaledPaperLayout(2)
	if err != nil {
		return nil, err
	}
	b := &bench{spec: s, layout: l, pool: frame.NewPool()}
	b.params = core.DefaultParams(l)
	b.params.Pool = b.pool
	if s.sunrise {
		b.src = video.NewSunRise(l.FrameW, l.FrameH, realisationSeed)
	} else {
		b.src = video.Gray(l.FrameW, l.FrameH)
	}
	cfg := b.channelConfig(realisationSeed)
	b.rcfg = core.DefaultReceiverConfig(b.params, s.capW, s.capH)
	b.rcfg.RefreshHz = cfg.Display.RefreshHz
	b.rcfg.Exposure = cfg.Camera.Exposure
	b.rcfg.ReadoutTime = cfg.Camera.ReadoutTime
	b.rcfg.Pool = b.pool
	b.rcfg.MinCaptureQuality = s.minQuality
	b.warp = core.AxisAlignedHomography(core.FullFrame(l, s.capW, s.capH))
	if s.calibrate {
		pose, err := b.calibratePose(cfg, tr)
		if err != nil {
			return nil, err
		}
		b.rcfg.Pose = &pose
		b.warp = pose
	}
	if s.fleet == 0 && !s.streaming {
		sp := tr.begin("core.receiver.new")
		b.rcv, err = core.NewReceiver(b.rcfg)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// calibratePose transmits one second through the posed camera and solves
// the display→capture homography from its leading captures. The
// transmission is the workload's fixed realisation, so every run solves the
// same pose.
func (b *bench) calibratePose(cfg channel.Config, tr *tracer) (frame.Homography, error) {
	if b.pose != nil {
		return *b.pose, nil
	}
	m, err := core.NewMultiplexer(b.params, b.src, core.NewRandomStream(b.layout, realisationSeed))
	if err != nil {
		return frame.Homography{}, err
	}
	res, err := channel.Simulate(m, displayFrames, cfg)
	if err != nil {
		return frame.Homography{}, err
	}
	start := time.Now()
	sp := tr.begin("register.calibrate")
	pose, err := register.CalibrateProjective(b.layout, res.Captures[:min(calibCaptures, len(res.Captures))])
	tr.end(sp)
	b.calibrateS = time.Since(start).Seconds()
	res.Recycle(b.pool)
	if err != nil {
		return frame.Homography{}, fmt.Errorf("pose calibration: %w", err)
	}
	if _, _, _, _, frontal := pose.AxisAligned(); frontal {
		return frame.Homography{}, fmt.Errorf("pose calibration fell back to the frontal mapping")
	}
	return pose, nil
}

// channelConfig is experiments.Setup's standard link at half scale with
// BlurRadius 0, seeded per episode, on the run's shared pool.
func (b *bench) channelConfig(seed int64) channel.Config {
	cfg := channel.DefaultConfig(b.capW, b.capH)
	cfg.Camera.BlurRadius = 0
	cfg.Camera.Seed = seed
	cfg.Pool = b.pool
	cfg.Impair = b.impair
	return cfg
}

// fleetConfig is fleet.DefaultConfig with the payload seeded per episode,
// the workload's fixed audience and a capped pool.
func (b *bench) fleetConfig(seed int64) fleet.Config {
	cfg := fleet.DefaultConfig(b.layout, b.capW, b.capH, b.fleet, seed)
	cfg.Pop = fleet.DefaultPopulation(realisationSeed, b.fleet, b.capW, b.capH)
	cfg.PoolCap = 4
	return cfg
}

// episode is what one transmission produced, before scoring.
type episode struct {
	frames []*core.FrameDecode
	report *core.DecodeReport
	stream *core.RandomStream
	// rcv is the receiver that decoded the frames.
	rcv    *core.Receiver
	render core.RenderStats
	// poolGets and poolMisses count a traced episode's frame pool traffic;
	// highWaterPix is its pool's peak residency.
	poolGets, poolMisses uint64
	highWaterPix         int64
	// scheduled and delivered count captures before and after the delivery
	// impairments, summed over receivers.
	scheduled, delivered int
	// receivers is the fleet's per-receiver outcome.
	receivers []fleet.ReceiverResult
}

// run is the untraced episode: the library's own entry points, with their
// worker pools and render/capture overlap.
func (b *bench) run(seed int64) (*episode, error) {
	if b.fleet > 0 {
		res, err := fleet.Run(b.fleetConfig(seed))
		if err != nil {
			return nil, err
		}
		ep := &episode{receivers: res.Receivers, render: res.Render}
		for _, r := range res.Receivers {
			ep.delivered += r.Captures
		}
		return ep, nil
	}
	stream := core.NewRandomStream(b.layout, seed)
	m, err := core.NewMultiplexer(b.params, b.src, stream)
	if err != nil {
		return nil, err
	}
	cfg := b.channelConfig(seed)
	res, err := channel.Simulate(m, displayFrames, cfg)
	if err != nil {
		return nil, err
	}
	ep, err := b.decode(res.Captures, res.Times, res.Exposure, nil)
	res.Recycle(b.pool)
	if err != nil {
		return nil, err
	}
	ep.stream = stream
	ep.render = m.RenderStats()
	return ep, nil
}

// decode runs the workload's receiver over one capture sequence.
func (b *bench) decode(caps []*frame.Frame, times []float64, exposure float64, tr *tracer) (*episode, error) {
	ep := &episode{delivered: len(caps), rcv: b.rcv}
	if !b.streaming {
		sp := tr.begin("core.receiver.decode")
		ep.frames, ep.report = b.rcv.DecodeCapturesReport(caps, times, exposure, displayFrames/b.params.Tau)
		tr.end(sp)
		return ep, nil
	}
	sp := tr.begin("core.receiver.new")
	sr, err := core.NewStreamingReceiver(b.rcfg, streamWindow)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	ep.rcv = sr.Receiver()
	for i, f := range caps {
		sp := tr.begin("core.receiver.push")
		out := sr.Push(f, times[i], exposure)
		tr.end(sp)
		ep.frames = append(ep.frames, out...)
	}
	return ep, nil
}

// traced is the traced episode: one goroutine calling each layer's
// public functions in channel.Simulate's (or fleet.Run's) order, one span per
// call. Outputs are bit-identical to run's, which the caller checks.
func (b *bench) traced(seed int64, tr *tracer) (*episode, error) {
	depth := len(tr.open)
	defer tr.unwind(depth)
	if b.fleet > 0 {
		return b.tracedFleet(seed, tr)
	}
	pool0 := b.pool.Stats()
	root := tr.begin("episode")
	sp := tr.begin("core.mux.new")
	stream := core.NewRandomStream(b.layout, seed)
	m, err := core.NewMultiplexer(b.params, tr.video(b.src), stream)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	cfg := b.channelConfig(seed)
	sp = tr.begin("channel.new")
	link, err := channel.New(cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	dur := float64(displayFrames) / cfg.Display.RefreshHz
	st, period, times := schedule(dur, cfg.CameraStart, link.Camera.FramePeriod(), cfg.Camera, cfg.Impair)
	if len(times) == 0 {
		return nil, fmt.Errorf("displayed duration too short for any capture")
	}
	caps, err := renderAndCapture(tr, m, link.Display, displayFrames, link.Camera, st, times, b.pool)
	if err != nil {
		return nil, err
	}
	scheduled := len(caps)
	if st != nil {
		sp = tr.begin("impair.sequence")
		caps, times = st.ApplySequence(caps, times, period, b.pool)
		tr.end(sp)
	}
	ep, err := b.decode(caps, times, cfg.Camera.Exposure, tr)
	tr.end(root)
	if err == nil {
		b.postPass(tr, ep.rcv, caps, times, ep.report, b.pool)
		ep.stream = stream
		ep.render = m.RenderStats()
		ep.scheduled = scheduled
	}
	for _, f := range caps {
		b.pool.Put(f)
	}
	if err == nil {
		ps := b.pool.Stats()
		ep.poolGets, ep.poolMisses = ps.Gets-pool0.Gets, ps.Misses-pool0.Misses
		ep.highWaterPix = b.pool.HighWater().Pixels
	}
	return ep, err
}

// schedule replicates the capture arithmetic of channel.Simulate and
// fleet.Run — same expressions, same float order — so traced captures
// expose at bit-identical times.
func schedule(dur, start, period float64, cam camera.Config, ic *impair.Config) (*impair.Stack, float64, []float64) {
	budget := dur - start - (cam.Exposure + cam.ReadoutTime)
	var st *impair.Stack
	if ic.Enabled() {
		st = impair.New(*ic)
		period = st.Period(period)
		budget -= ic.StartJitter
	}
	n := int(budget / period)
	if n <= 0 {
		return st, period, nil
	}
	times := make([]float64, n)
	for i := range times {
		if st != nil {
			times[i] = st.CaptureTime(i, start, period)
		} else {
			times[i] = start + float64(i)*period
		}
	}
	return st, period, times
}

// renderAndCapture pushes n display frames and takes each capture as soon as
// every display frame its exposure window touches is on the monitor, as
// channel.Simulate dispatches them; captures still pending after the last
// push run at the end. With no capture times it only renders (fleet). On
// error the captures taken so far go back to pool.
func renderAndCapture(tr *tracer, m *core.Multiplexer, d *display.Display, n int, cam *camera.Camera, st *impair.Stack, times []float64, pool *frame.Pool) ([]*frame.Frame, error) {
	var span float64
	if cam != nil {
		span = cam.Config().Exposure + cam.Config().ReadoutTime
	}
	frameT := 1 / d.Config().RefreshHz
	caps := make([]*frame.Frame, len(times))
	next := 0
	for k := 0; k < n; k++ {
		sp := tr.begin("core.mux.frame")
		f := m.Frame(k)
		tr.end(sp)
		sp = tr.begin("display.push")
		err := d.Push(f)
		tr.end(sp)
		sp = tr.begin("core.mux.recycle")
		m.Recycle(f)
		tr.end(sp)
		if err != nil {
			for _, c := range caps[:next] {
				pool.Put(c)
			}
			return nil, fmt.Errorf("frame %d: %w", k, err)
		}
		for next < len(times) && int(math.Ceil((times[next]+span)/frameT)) <= k+1 {
			caps[next] = capture(tr, cam, d, st, times[next], next)
			next++
		}
	}
	for ; next < len(times); next++ {
		caps[next] = capture(tr, cam, d, st, times[next], next)
	}
	return caps, nil
}

func capture(tr *tracer, cam *camera.Camera, d *display.Display, st *impair.Stack, t float64, i int) *frame.Frame {
	sp := tr.begin("camera.capture")
	f := cam.Capture(d, t, i)
	tr.end(sp)
	if st != nil {
		sp = tr.begin("impair.frame")
		st.ApplyFrame(f, i, t, cam.Config().Exposure)
		tr.end(sp)
	}
	return f
}

// postPass times the receiver's per-capture measurement and the rectifying
// warp on up to postPassCaptures used captures, outside the episode span.
// The warp target comes from pool, the receiver's own scratch pool.
func (b *bench) postPass(tr *tracer, rcv *core.Receiver, caps []*frame.Frame, times []float64, rep *core.DecodeReport, pool *frame.Pool) {
	done := 0
	for i, f := range caps {
		if done == postPassCaptures {
			break
		}
		if rep != nil && !rep.Quality[i].Used {
			continue
		}
		sp := tr.begin("core.receiver.measure")
		rcv.MeasureCaptureAt(f, times[i])
		tr.end(sp)
		dst := pool.Get(b.layout.FrameW, b.layout.FrameH)
		sp = tr.begin("frame.warp")
		frame.WarpInto(f, dst, b.warpFor(f))
		tr.end(sp)
		pool.Put(dst)
		done++
	}
}

// warpFor is the warp post-pass geometry for one capture: the workload's
// pose, or the frontal mapping of the capture's own size (fleet receivers
// differ in resolution).
func (b *bench) warpFor(f *frame.Frame) frame.Homography {
	if b.calibrate {
		return b.warp
	}
	return core.AxisAlignedHomography(core.FullFrame(b.layout, f.W, f.H))
}

// tracedFleet replicates fleet.Run receiver by receiver on one goroutine:
// render once, then capture, impair and decode each population member.
func (b *bench) tracedFleet(seed int64, tr *tracer) (*episode, error) {
	cfg := b.fleetConfig(seed)
	root := tr.begin("episode")
	pool := frame.NewPool()
	pool.SetMaxPerSize(cfg.PoolCap)
	p := cfg.Params
	p.Pool = pool
	p.Workers = cfg.Workers
	nDisplay := int(cfg.Seconds * cfg.Display.RefreshHz)
	nData := nDisplay / p.Tau
	sp := tr.begin("core.mux.new")
	stream := core.NewRandomStream(p.Layout, cfg.StreamSeed)
	m, err := core.NewMultiplexer(p, tr.video(b.src), stream)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("display.new")
	d, err := display.New(cfg.Display)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if _, err := renderAndCapture(tr, m, d, nDisplay, nil, nil, nil, pool); err != nil {
		return nil, err
	}
	oracle := make([]*core.DataFrame, nData)
	for i := range oracle {
		oracle[i] = stream.DataFrame(i)
	}
	ep := &episode{render: m.RenderStats(), receivers: make([]fleet.ReceiverResult, cfg.Pop.N)}
	for i := range ep.receivers {
		r, err := b.tracedReceiver(tr, &cfg, i, d, pool, oracle, ep)
		if err != nil {
			return nil, fmt.Errorf("receiver %d: %w", i, err)
		}
		ep.receivers[i] = r
	}
	tr.end(root)
	ps := pool.Stats()
	ep.poolGets, ep.poolMisses, ep.highWaterPix = ps.Gets, ps.Misses, pool.HighWater().Pixels
	return ep, nil
}

// tracedReceiver is fleet's per-receiver capture and decode, with the
// population spec, schedule and scoring of fleet.Run. Camera and receiver
// run at Workers 0 here, where fleet.Run gives each receiver a Split share;
// outputs are bit-identical at any worker count.
func (b *bench) tracedReceiver(tr *tracer, cfg *fleet.Config, i int, d *display.Display, pool *frame.Pool, oracle []*core.DataFrame, ep *episode) (fleet.ReceiverResult, error) {
	base := cfg.Camera
	base.Pool = pool
	spec := cfg.Pop.Spec(i, base)
	if err := spec.Impair.Validate(); err != nil {
		return fleet.ReceiverResult{}, err
	}
	sp := tr.begin("camera.new")
	cam, err := camera.New(spec.Camera)
	tr.end(sp)
	if err != nil {
		return fleet.ReceiverResult{}, err
	}
	st, period, times := schedule(d.Duration(), spec.Start, cam.FramePeriod(), spec.Camera, spec.Impair)
	var caps []*frame.Frame
	if len(times) > 0 {
		caps = make([]*frame.Frame, len(times))
		for j, t := range times {
			caps[j] = capture(tr, cam, d, st, t, j)
		}
		ep.scheduled += len(caps)
		if st != nil {
			sp = tr.begin("impair.sequence")
			caps, times = st.ApplySequence(caps, times, period, pool)
			tr.end(sp)
		}
	}
	ep.delivered += len(caps)
	rcfg := core.DefaultReceiverConfig(cfg.Params, spec.Camera.W, spec.Camera.H)
	rcfg.RefreshHz = cfg.Display.RefreshHz
	rcfg.Exposure = spec.Camera.Exposure
	rcfg.ReadoutTime = spec.Camera.ReadoutTime
	rcfg.Pool = pool
	rcfg.MinCaptureQuality = cfg.MinCaptureQuality
	rcfg.RecalibrateEvery = cfg.RecalibrateEvery
	sp = tr.begin("core.receiver.new")
	rcv, err := core.NewReceiver(rcfg)
	tr.end(sp)
	if err != nil {
		for _, f := range caps {
			pool.Put(f)
		}
		return fleet.ReceiverResult{}, err
	}
	sp = tr.begin("core.receiver.decode")
	decoded, rep := rcv.DecodeCapturesReport(caps, times, spec.Camera.Exposure, len(oracle))
	tr.end(sp)
	b.postPass(tr, rcv, caps, times, rep, pool)
	for _, f := range caps {
		pool.Put(f)
	}
	ep.addReport(rep)
	r := fleet.ReceiverResult{
		Index: i, Profile: spec.Profile,
		CaptureW: spec.Camera.W, CaptureH: spec.Camera.H,
		Start: spec.Start, Captures: len(caps),
		GapFrames: rep.GapFrames, Resyncs: rep.Resyncs,
	}
	r.Avail, r.BER = fleetScore(decoded, oracle, cfg.Params.Layout)
	r.TTFD, r.Decoded = math.Inf(1), false
	for di, fd := range decoded {
		if fd.AvailableGOBs() > 0 {
			r.TTFD, r.Decoded = float64((di+1)*cfg.Params.Tau)/cfg.Display.RefreshHz-spec.Start, true
			break
		}
	}
	return r, nil
}

// addReport folds a fleet receiver's decode report into the episode's.
func (ep *episode) addReport(rep *core.DecodeReport) {
	if ep.report == nil {
		ep.report = &core.DecodeReport{}
	}
	ep.report.Quality = append(ep.report.Quality, rep.Quality...)
	ep.report.GapFrames += rep.GapFrames
	ep.report.ExcludedCaptures += rep.ExcludedCaptures
}

// fleetScore is fleet.Run's per-receiver scoring: availability over every
// data frame (gaps count unavailable) and the confident-bit error rate.
func fleetScore(decoded []*core.FrameDecode, oracle []*core.DataFrame, l core.Layout) (avail, ber float64) {
	availGOBs, totalGOBs, wrong, decided := 0, 0, 0, 0
	for d, fd := range decoded {
		totalGOBs += l.NumGOBs()
		availGOBs += fd.AvailableGOBs()
		w, n := bitErrors(fd, oracle[d])
		wrong += w
		decided += n
	}
	if totalGOBs > 0 {
		avail = float64(availGOBs) / float64(totalGOBs)
	}
	if decided > 0 {
		ber = float64(wrong) / float64(decided)
	}
	return avail, ber
}

// bitErrors counts confidently decided Blocks and the wrong ones among them.
func bitErrors(fd *core.FrameDecode, sent *core.DataFrame) (wrong, decided int) {
	for j, dec := range fd.Decided {
		if !dec {
			continue
		}
		decided++
		if fd.Bits.Bits[j] != sent.Bits[j] {
			wrong++
		}
	}
	return wrong, decided
}
