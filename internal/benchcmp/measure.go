package benchcmp

import (
	"fmt"
	"runtime"
	"testing"

	"inframe/internal/channel"
	"inframe/internal/core"
	"inframe/internal/fleet"
	"inframe/internal/frame"
	"inframe/internal/video"
)

// FleetReceivers is the population size of the Fleet baseline entries; the
// receivers/sec headline is FleetReceivers / (ns-per-op · 1e-9).
const FleetReceivers = 8

// FleetConfig returns the baseline fleet shape: one rendered 4·τ stream on
// the scaled paper geometry decoded by a FleetReceivers-member default
// population, sharing a capped pool and the given worker budget — the same
// shape BenchmarkFleet measures.
func FleetConfig(scale, w int) (fleet.Config, error) {
	l, err := core.ScaledPaperLayout(scale)
	if err != nil {
		return fleet.Config{}, err
	}
	cfg := fleet.DefaultConfig(l, 1280/scale, 720/scale, FleetReceivers, 1)
	cfg.Seconds = float64(4*cfg.Params.Tau) / cfg.Display.RefreshHz
	cfg.Workers = w
	cfg.PoolCap = 4
	return cfg, nil
}

// Link names the channel configuration Pipeline builds. Measure records it
// in every baseline, so neither the gate nor the history sets timings of
// two different links against each other. Baselines recorded before it
// existed carry none: they timed channel.DefaultConfig's camera at
// BlurRadius 1, whose optical blur erases the chessboard at the half-scale
// capture, so that link decoded nothing.
const Link = "camera-blur-0"

// Pipeline builds the link the gate times: the scaled paper geometry's
// multiplexer over static gray, channel.DefaultConfig at the 1280×720
// capture divided by scale with the camera's optical blur off (BlurRadius
// 0, the experiments' standard link), the receiver that link implies, every
// stage's worker pool set to w, and one shared frame pool. It also returns
// the display-frame count one iteration transmits (four data frames) and
// the pool. BenchmarkEndToEnd and BenchmarkDecodeCaptures build the same
// pipeline, so baseline numbers compare directly with `go test -bench`
// output.
func Pipeline(scale, w int) (*core.Multiplexer, channel.Config, *core.Receiver, int, *frame.Pool, error) {
	l, err := core.ScaledPaperLayout(scale)
	if err != nil {
		return nil, channel.Config{}, nil, 0, nil, err
	}
	pool := frame.NewPool()
	p := core.DefaultParams(l)
	p.Workers = w
	p.Pool = pool
	m, err := core.NewMultiplexer(p, video.Gray(l.FrameW, l.FrameH), core.NewRandomStream(l, 1))
	if err != nil {
		return nil, channel.Config{}, nil, 0, nil, err
	}
	cfg := channel.DefaultConfig(1280/scale, 720/scale)
	cfg.Camera.BlurRadius = 0
	cfg.Camera.Workers = w
	cfg.Workers = w
	cfg.Pool = pool
	rcv, err := core.NewReceiver(cfg.Receiver(p))
	if err != nil {
		return nil, channel.Config{}, nil, 0, nil, err
	}
	return m, cfg, rcv, 4 * p.Tau, pool, nil
}

// measureRepeats is how many times each benchmark is sampled; the fastest
// sample is kept. Benchmark noise on a shared container is one-sided (CPU
// steal and scheduler interference only ever slow a run down), so the
// minimum across a few repetitions is the robust ns/op estimator — a single
// sample of the short Fleet benchmark can swing past the benchdiff
// tolerance on its own.
const measureRepeats = 3

// measureBest runs fn through testing.Benchmark measureRepeats times and
// returns the fastest run. allocs/op and bytes/op come from the same run,
// which is fine: they are deterministic up to pool warm-up (±1). Each
// sample starts from a freshly collected heap: the stages run back to back
// in one process, and whatever garbage the previous stage left alive skews
// the GC pacing the next sample sees — Fleet measured after EndToEnd swings
// ±15% from that alone, while a clean-process Fleet holds ±2%.
func measureBest(fn func(b *testing.B)) testing.BenchmarkResult {
	runtime.GC()
	best := testing.Benchmark(fn)
	for i := 1; i < measureRepeats; i++ {
		runtime.GC()
		if r := testing.Benchmark(fn); r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

// calibSize and calibPasses size the calibration kernel: a fixed
// float32 stream + int32 accumulate pass shaped like the pipeline's hot
// loops (clamped multiply-add over whole frames, integer reduction). The
// buffer must be far larger than the last-level cache so the kernel is
// memory-bandwidth-bound like the frame pipeline it normalizes: the
// dominant drift on shared containers is memory-controller contention,
// which a cache-resident kernel does not see at all (measured: an L2-sized
// kernel's ns/op moved opposite to the pipeline's between speed states).
const (
	calibSize   = 1 << 22
	calibPasses = 4
)

// calibSink keeps the calibration reduction observable so the kernel cannot
// be optimized away.
var calibSink int32

// Calibrate times the fixed reference kernel and returns its ns/op, best of
// measureRepeats samples. The kernel does a constant amount of work, so its
// ns/op moves only with the machine's effective speed — the normalization
// denominator Compare uses to cancel run-to-run machine drift.
func Calibrate() int64 {
	buf := make([]float32, calibSize)
	for i := range buf {
		buf[i] = float32(i%251) / 4
	}
	var acc int32
	r := measureBest(func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			for p := 0; p < calibPasses; p++ {
				for i, v := range buf {
					v = float32(v*1.0009766) + 0.5
					if v > 255 {
						v -= 255
					}
					buf[i] = v
					acc += int32(v)
				}
			}
		}
	})
	calibSink = acc
	return r.NsPerOp()
}

// Measure benchmarks EndToEnd (render + channel + decode) and DecodeCaptures
// (receive side only) at workers=1 and, when the machine has more than one
// core, workers=GOMAXPROCS, and returns the results as a fresh baseline.
// Every entry is the best of measureRepeats samples, so committed baselines
// and benchdiff's fresh runs estimate the same (noise-free) quantity, and
// the calibration kernel is timed alongside so Compare can normalize away
// whatever speed state the machine was in.
func Measure(scale int) (*Baseline, error) {
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	base := &Baseline{
		Schema:       Schema,
		GoVersion:    runtime.Version(),
		GoOS:         runtime.GOOS,
		GoArch:       runtime.GOARCH,
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		Scale:        scale,
		Link:         Link,
		CalibNsPerOp: Calibrate(),
	}
	for _, w := range counts {
		m, cfg, rcv, nDisplay, pool, err := Pipeline(scale, w)
		if err != nil {
			return nil, err
		}
		var benchErr error
		r := measureBest(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := channel.Simulate(m, nDisplay, cfg)
				if err != nil {
					benchErr = err
					b.FailNow()
				}
				rcv.DecodeCaptures(res.Captures, res.Times, res.Exposure, nDisplay/rcv.Config().Tau)
				res.Recycle(pool)
			}
		})
		if benchErr != nil {
			return nil, benchErr
		}
		base.Benchmarks = append(base.Benchmarks, Entry{
			Name:        fmt.Sprintf("EndToEnd/workers=%d", w),
			Iterations:  r.N,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	// Decode-only: one captured sequence (full pool), then time the decode
	// at each worker count.
	m, cfg, _, nDisplay, _, err := Pipeline(scale, 0)
	if err != nil {
		return nil, err
	}
	res, err := channel.Simulate(m, nDisplay, cfg)
	if err != nil {
		return nil, err
	}
	for _, w := range counts {
		_, _, rcv, _, _, err := Pipeline(scale, w)
		if err != nil {
			return nil, err
		}
		r := measureBest(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rcv.DecodeCaptures(res.Captures, res.Times, res.Exposure, nDisplay/rcv.Config().Tau)
			}
		})
		base.Benchmarks = append(base.Benchmarks, Entry{
			Name:        fmt.Sprintf("DecodeCaptures/workers=%d", w),
			Iterations:  r.N,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	// Drop the captured sequence before the Fleet stage so tens of MB of
	// capture frames don't distort its GC pacing.
	res = nil
	_ = res
	// Fleet: render once, decode a FleetReceivers-member population — the
	// receivers/sec scaling headline.
	for _, w := range counts {
		cfg, err := FleetConfig(scale, w)
		if err != nil {
			return nil, err
		}
		var benchErr error
		r := measureBest(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fleet.Run(cfg); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
		})
		if benchErr != nil {
			return nil, benchErr
		}
		base.Benchmarks = append(base.Benchmarks, Entry{
			Name:        fmt.Sprintf("Fleet/workers=%d", w),
			Iterations:  r.N,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return base, nil
}
