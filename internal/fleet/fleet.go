package fleet

import (
	"fmt"
	"math"

	"inframe/internal/camera"
	"inframe/internal/channel"
	"inframe/internal/core"
	"inframe/internal/display"
	"inframe/internal/frame"
	"inframe/internal/metrics"
	"inframe/internal/parallel"
	"inframe/internal/video"
)

// Config describes one broadcast-fleet run: a single rendered transmission
// and the population that decodes it.
type Config struct {
	// Params is the transmitter configuration. Pool and Workers are
	// managed by Run (the render shares the fleet pool and the one worker
	// budget).
	Params core.Params
	// Display is the monitor model.
	Display display.Config
	// Source is the carried video; nil plays uniform gray, the
	// experiments' standard carrier.
	Source video.Source
	// Seconds is the rendered transmission length.
	Seconds float64
	// StreamSeed keys the random payload stream.
	StreamSeed int64
	// Camera is the base capture template the population specializes
	// (geometry, exposure, noise and seed are overridden per receiver).
	Camera camera.Config
	// Pop is the receiver population.
	Pop Population
	// Workers is the fleet's worker budget: the render and the one
	// capture pool every member shares each run on Resolve(Workers)
	// goroutines (captures overlap the render, as in channel.Simulate),
	// and the decodes fan out across min(Resolve(Workers), N) receivers,
	// each with the per-receiver share from parallel.Split, so nested
	// fan-out never multiplies the budget. 0 means GOMAXPROCS; 1 forces
	// the sequential path. Results are bit-identical at any value.
	Workers int
	// PoolCap bounds the shared frame pool's per-size free lists
	// (frame.Pool.SetMaxPerSize); 0 leaves them unbounded. A fleet of
	// heterogeneous geometries keys one free list per distinct W×H; every
	// capture goes back to the pool once its receiver has measured it, so
	// each list stays a few frames deep, and a cap bounds it outright.
	PoolCap int
	// MinCaptureQuality and RecalibrateEvery configure the receivers'
	// graceful-degradation decode (see core.ReceiverConfig).
	MinCaptureQuality float64
	RecalibrateEvery  int
}

// DefaultConfig returns a fleet run over the standard experiment link: the
// layout's gray carrier at 120 Hz with instant pixel response, the default
// 30 FPS camera with no optical blur, and DefaultPopulation(seed, n) around
// the given capture geometry.
func DefaultConfig(l core.Layout, capW, capH, n int, seed int64) Config {
	dcfg := display.DefaultConfig()
	// Instant pixels, as experiments.Setup models the FG2421 (A12).
	dcfg.ResponseTime = 0
	ccfg := camera.DefaultConfig(capW, capH)
	ccfg.BlurRadius = 0
	return Config{
		Params:            core.DefaultParams(l),
		Display:           dcfg,
		Seconds:           1,
		StreamSeed:        seed,
		Camera:            ccfg,
		Pop:               DefaultPopulation(seed, n, capW, capH),
		MinCaptureQuality: 0.1,
		RecalibrateEvery:  10,
	}
}

// ReceiverResult is one fleet member's outcome.
type ReceiverResult struct {
	// Index and Profile identify the sampled spec.
	Index   int
	Profile string
	// CaptureW, CaptureH and Start echo the sampled camera geometry and
	// join offset.
	CaptureW, CaptureH int
	Start              float64
	// Captures is how many captures reached the decoder (after any
	// drop/duplicate impairments).
	Captures int
	// Avail is the available-GOB ratio over all data frames (gaps count
	// unavailable); BER is the confident-bit error rate over decided
	// Blocks, verified against the transmitted payload.
	Avail, BER float64
	// TTFD is the time from this receiver's start to the display-side end
	// of the first data frame it decoded any GOB of; +Inf when the
	// receiver never decoded (Decoded false).
	TTFD    float64
	Decoded bool
	// GapFrames and Resyncs echo the receiver's decode report.
	GapFrames int
	Resyncs   int
}

// Dist summarizes one per-receiver metric across the fleet. Percentiles are
// exact sort-then-index order statistics (metrics.Series.Percentile), not
// interpolations.
type Dist struct {
	Mean, P50, P95, P99 float64
}

func distOf(s *metrics.Series) Dist {
	return Dist{
		Mean: s.Mean(),
		P50:  s.Percentile(0.50),
		P95:  s.Percentile(0.95),
		P99:  s.Percentile(0.99),
	}
}

// Result aggregates a fleet run.
type Result struct {
	// N, DataFrames and DisplayFrames fix the run's scale.
	N             int
	DataFrames    int
	DisplayFrames int
	// Receivers holds every member's outcome, indexed by receiver.
	Receivers []ReceiverResult
	// Avail, BER and TTFD are the fleet distributions. TTFD summarizes
	// only receivers that decoded; NeverDecoded counts the rest.
	Avail, BER, TTFD Dist
	NeverDecoded     int
	// Degrade merges every receiver's degradation stats in index order.
	Degrade metrics.DegradationStats
	// Pool and PoolHighWater snapshot the shared frame pool after the
	// run. They are scheduling gauges, not work counters: how many frames
	// are live at once depends on how the captures interleave across the
	// Workers, so the misses, evictions and high-water vary with Workers
	// (inframe-bench -exp fleet reads misses=6, high-water=5 frames at one
	// worker and 11 and 10 at two) and can vary between runs at more than
	// one. They repeat for a fixed config at Workers=1, and every decode
	// output is bit-identical at any Workers.
	Pool          frame.PoolStats
	PoolHighWater frame.PoolHighWater
	// Render snapshots the transmitter's incremental-render counters for
	// the one shared render pass: how many Block delta rewrites, headroom
	// scans and video loads the caches avoided.
	Render core.RenderStats
}

// Run renders the transmission once and decodes it with every receiver in
// the population. Rendering and capture run in one lockstep pass
// (broadcast), after which the members' decodes fan out. Receiver outcomes
// are written to index-addressed slots and aggregated in index order, so
// the entire Result — distributions, merged degradation stats, every
// per-receiver row — is bit-identical at any worker count, and each row is
// what rendering the whole transmission first, then running the member's
// channel.Simulate captures through DecodeCapturesReport, would score.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Pop.Validate(); err != nil {
		return nil, err
	}
	if cfg.Seconds <= 0 {
		return nil, fmt.Errorf("fleet: Seconds must be positive, got %v", cfg.Seconds)
	}
	nDisplay := int(cfg.Seconds * cfg.Display.RefreshHz)
	nData := nDisplay / cfg.Params.Tau
	if nData <= 0 {
		return nil, fmt.Errorf("fleet: %v s at %v Hz holds no complete data frame (tau %d)",
			cfg.Seconds, cfg.Display.RefreshHz, cfg.Params.Tau)
	}

	// One shared pool for render, every capture and every decode. The cap
	// (when set) bounds each size key's free list so the union of N
	// geometries cannot grow retained memory without bound.
	pool := frame.NewPool()
	if cfg.PoolCap > 0 {
		pool.SetMaxPerSize(cfg.PoolCap)
	}

	// The worker budget (see Config.Workers): the decodes fan out over
	// min(Resolve(Workers), N) receivers, each deciding on its Split share.
	n := cfg.Pop.N
	outer := parallel.Resolve(cfg.Workers)
	if outer > n {
		outer = n
	}
	inner := parallel.Split(cfg.Workers, outer)
	bc, err := cfg.broadcast(nDisplay, nData, pool, inner)
	if err != nil {
		return nil, err
	}

	recvs := make([]ReceiverResult, n)
	stats := make([]metrics.DegradationStats, n)
	parallel.For(cfg.Workers, n, func(i int) {
		decoded, rep := bc.members[i].batch.Decode()
		recvs[i], stats[i] = cfg.row(bc.members[i].spec, bc.members[i].delivered, decoded, rep, bc.oracle)
	})

	// Aggregate strictly in receiver-index order: Merge's quality series
	// and the distributions' float sums are order-sensitive, and index
	// order is what makes the aggregate bit-identical at any worker count.
	res := &Result{
		N:             n,
		DataFrames:    nData,
		DisplayFrames: nDisplay,
		Receivers:     recvs,
	}
	var availS, berS, ttfdS metrics.Series
	for i := range recvs {
		res.Degrade.Merge(&stats[i])
		availS.Add(recvs[i].Avail)
		berS.Add(recvs[i].BER)
		if recvs[i].Decoded {
			ttfdS.Add(recvs[i].TTFD)
		} else {
			res.NeverDecoded++
		}
	}
	res.Avail = distOf(&availS)
	res.BER = distOf(&berS)
	res.TTFD = distOf(&ttfdS)
	res.Pool = pool.Stats()
	res.PoolHighWater = pool.HighWater()
	res.Render = bc.render
	return res, nil
}

// member is one fleet receiver in flight: its sampled spec, the capturer
// streaming its schedule off the shared display, and the batch its
// receiver measures each delivered capture into.
type member struct {
	spec     ReceiverSpec
	capturer *channel.Capturer
	batch    *core.Batch
	// delivered is the length of the member's delivered capture sequence.
	delivered int
}

// broadcastRun is what the lockstep pass leaves for the decodes: every
// member with all its delivered captures observed, the transmitter's
// render counters, and the transmitted data frames to score against.
type broadcastRun struct {
	members []*member
	render  core.RenderStats
	oracle  []*core.DataFrame
}

// broadcast renders nDisplay frames exactly once, straight into the drive
// slots of one display that every member captures from (it is safe for
// any number of concurrent light-field readers). After each push, every
// member dispatches the captures that frame completes onto one shared
// worker pool, its receiver measures each capture the moment it lands,
// and the frame goes straight back to the frame pool. The display then
// retires every drive frame older than the earliest exposure any member
// still has to take, so memory follows the capture window, not the
// transmission, and is closed once every capture has finished, handing its
// drive slots to the next display. inner is each receiver's decode share of
// the budget.
func (cfg *Config) broadcast(nDisplay, nData int, pool *frame.Pool, inner int) (*broadcastRun, error) {
	p := cfg.Params
	p.Pool = pool
	p.Workers = cfg.Workers
	stream := core.NewRandomStream(p.Layout, cfg.StreamSeed)
	src := cfg.Source
	if src == nil {
		src = video.Gray(p.Layout.FrameW, p.Layout.FrameH)
	}
	m, err := core.NewMultiplexer(p, src, stream)
	if err != nil {
		return nil, err
	}
	d, err := display.New(cfg.Display)
	if err != nil {
		return nil, err
	}
	// Every return below has waited for the captures (capPool.Wait or each
	// member's Finish); the decodes read only their measured batches.
	defer d.Close()
	capPool := parallel.NewPool(cfg.Workers)
	members, err := cfg.join(float64(nDisplay)/cfg.Display.RefreshHz, nData, d, pool, capPool, inner)
	if err != nil {
		return nil, err
	}
	for k := 0; k < nDisplay; k++ {
		if err := m.PushFrame(d, k); err != nil {
			// Streamed captures hand their frames back as they finish.
			capPool.Wait()
			return nil, fmt.Errorf("fleet: pushing frame %d: %w", k, err)
		}
		horizon := math.Inf(1)
		for _, mb := range members {
			mb.capturer.Displayed(k + 1)
			horizon = math.Min(horizon, mb.capturer.Horizon())
		}
		d.Retire(horizon)
	}
	for _, mb := range members {
		mb.capturer.Finish()
	}
	// Materialize the oracle frames before the decode fan-out:
	// RandomStream's lazy cache is not safe for concurrent first touches,
	// and every receiver scores against the same nData frames.
	oracle := make([]*core.DataFrame, nData)
	for i := range oracle {
		oracle[i] = stream.DataFrame(i)
	}
	return &broadcastRun{members: members, render: m.RenderStats(), oracle: oracle}, nil
}

// join samples every member of the population and readies it to capture a
// dur-second transmission from d: receiver i captures through the channel's
// own schedule (with its sampled camera, start and impairments, which
// Pop.Validate has vetted) on the shared capture pool, and measures each
// delivered capture into its batch — exactly the captures and times a
// standalone channel.Simulate with the same spec would deliver. Each
// receiver decodes with inner workers, its share of the fleet budget.
// Everything is keyed by the receiver index: the sampled spec, the camera
// noise, the impairment streams. A start that leaves no room for a single
// capture yields an empty sequence, which decodes to all-CauseNoCapture
// erasures, never a panic.
func (cfg *Config) join(dur float64, nData int, d *display.Display, pool *frame.Pool, capPool *parallel.Pool, inner int) ([]*member, error) {
	base := cfg.Camera
	base.Pool = pool
	base.Workers = 1 // rows stay sequential; parallelism lives at capture granularity
	members := make([]*member, cfg.Pop.N)
	for i := range members {
		spec := cfg.Pop.Spec(i, base)
		cam, err := camera.New(spec.Camera)
		if err != nil {
			return nil, fmt.Errorf("fleet: receiver %d: %w", i, err)
		}
		rcv, err := core.NewReceiver(cfg.receiverConfig(spec, pool, inner))
		if err != nil {
			return nil, fmt.Errorf("fleet: receiver %d: %w", i, err)
		}
		mb := &member{spec: spec}
		sched := channel.NewSchedule(dur, spec.Start, spec.Camera, spec.Impair)
		mb.capturer, mb.delivered = sched.Stream(cam, d, capPool, func(k int, f *frame.Frame, t float64) {
			mb.batch.Observe(k, f, t)
		})
		mb.batch = rcv.NewBatch(mb.delivered, spec.Camera.Exposure, nData)
		members[i] = mb
	}
	return members, nil
}

// receiverConfig is the decoder of a member with the given spec, running
// on workers goroutines: the receiver of the member's link.
func (cfg *Config) receiverConfig(spec ReceiverSpec, pool *frame.Pool, workers int) core.ReceiverConfig {
	link := channel.Config{Display: cfg.Display, Camera: spec.Camera, Workers: workers, Pool: pool}
	rcfg := link.Receiver(cfg.Params)
	rcfg.MinCaptureQuality = cfg.MinCaptureQuality
	rcfg.RecalibrateEvery = cfg.RecalibrateEvery
	return rcfg
}

// row is the outcome of the member with the given spec: its decode of the
// captures it was delivered, scored against the transmitted oracle.
func (cfg *Config) row(spec ReceiverSpec, captures int, decoded []*core.FrameDecode, rep *core.DecodeReport, oracle []*core.DataFrame) (ReceiverResult, metrics.DegradationStats) {
	rr := ReceiverResult{
		Index:    spec.Index,
		Profile:  spec.Profile,
		CaptureW: spec.Camera.W,
		CaptureH: spec.Camera.H,
		Start:    spec.Start,
		Captures: captures,

		GapFrames: rep.GapFrames,
		Resyncs:   rep.Resyncs,
	}
	rr.Avail, rr.BER = score(decoded, oracle, cfg.Params.Layout)
	rr.TTFD, rr.Decoded = timeToFirstDecode(decoded, cfg.Params.Tau, cfg.Display.RefreshHz, spec.Start)
	var deg metrics.DegradationStats
	deg.AddReport(rep)
	return rr, deg
}

// score tallies availability over all data frames (gap frames count as
// unavailable) and the confident-bit error rate of decided Blocks against
// the transmitted payload — the fleet-side twin of the robustness oracle.
func score(decoded []*core.FrameDecode, oracle []*core.DataFrame, l core.Layout) (avail, ber float64) {
	availGOBs, totalGOBs := 0, 0
	wrong, decided := 0, 0
	for d, fd := range decoded {
		totalGOBs += l.NumGOBs()
		availGOBs += fd.AvailableGOBs()
		want := oracle[d]
		for j, dec := range fd.Decided {
			if !dec {
				continue
			}
			decided++
			if fd.Bits.Bits[j] != want.Bits[j] {
				wrong++
			}
		}
	}
	if totalGOBs > 0 {
		avail = float64(availGOBs) / float64(totalGOBs)
	}
	if decided > 0 {
		ber = float64(wrong) / float64(decided)
	}
	return avail, ber
}

// timeToFirstDecode returns how long after its own start a receiver first
// delivered any GOB, measured to the display-side end of that data frame
// ((d+1)·τ/refresh). A receiver that never decodes reports +Inf, false.
func timeToFirstDecode(decoded []*core.FrameDecode, tau int, refreshHz, start float64) (float64, bool) {
	for d, fd := range decoded {
		if fd.AvailableGOBs() > 0 {
			end := float64((d+1)*tau) / refreshHz
			return end - start, true
		}
	}
	return math.Inf(1), false
}
