package main

import (
	"time"

	"inframe/internal/parallel"
)

const (
	// gaugeFloats sizes the reference kernel's buffer: 64 MiB of float32,
	// the order of one episode's working set (the display keeps 62 MB of
	// drive history), split into gaugeChunks parts that run on the same
	// worker pool as the pipeline's stages.
	gaugeFloats = 1 << 24
	gaugeChunks = 64
	// refSeconds is the reference kernel's time on an unloaded machine of
	// the kind the benchmark was recorded on. Times are reported as
	// measured wall time × refSeconds / kernel time. It is a fixed constant:
	// changing it rescales every reported time.
	refSeconds = 0.010
)

// speedGauge times a fixed kernel right before each measured interval. On
// a shared machine the speed available to this process drifts by tens of
// percent over tens of seconds, with memory bandwidth and with how much of
// the second CPU it gets; the kernel, parallel and memory-bound like the
// pipeline, slows with it while the pipeline's code stays the same.
// Dividing by the kernel turns wall time into time at a reference speed,
// which two runs at different moments can compare.
type speedGauge struct {
	buf   []float32
	parts []float32
	// last is the latest kernel time; total sums all of them.
	last, total float64
	n           int
}

func newSpeedGauge() *speedGauge {
	g := &speedGauge{buf: make([]float32, gaugeFloats), parts: make([]float32, gaugeChunks)}
	for i := range g.buf {
		g.buf[i] = float32(i % 251)
	}
	return g
}

// sample runs the kernel once and records its time.
func (g *speedGauge) sample() {
	start := time.Now()
	n := len(g.buf) / gaugeChunks
	parallel.For(0, gaugeChunks, func(c int) {
		part := g.buf[c*n : (c+1)*n]
		var acc float32
		for i, v := range part {
			v = v*1.0009766 + 0.5
			if v > 255 {
				v -= 255
			}
			part[i] = v
			acc += v
		}
		g.parts[c] += acc
	})
	g.last = time.Since(start).Seconds()
	g.total += g.last
	g.n++
}

// scaleLast converts a time measured right after the latest sample.
func (g *speedGauge) scaleLast(s float64) float64 { return s * refSeconds / g.last }

// scale converts a time accumulated since the last reset, using the mean
// kernel time of that window: a ratio of sums, which is steadier than
// per-interval ratios.
func (g *speedGauge) scale(s float64) float64 { return s * refSeconds * float64(g.n) / g.total }

// reset starts a new window for scale.
func (g *speedGauge) reset() { g.total, g.n = 0, 0 }
