package core

import (
	"fmt"
	"math"
	"sort"

	"inframe/internal/frame"
)

// StreamingReceiver is the online counterpart of Receiver.DecodeCaptures:
// captures are pushed as they arrive and data frames are emitted as soon as
// their steady window has passed, with the per-Block level calibration
// computed causally over a trailing window of frames.
//
// Besides enabling live operation, the sliding window lets the calibration
// track content drift: a Block whose texture changes (a moving edge passes
// through) poisons only the frames inside the window, not the whole run.
type StreamingReceiver struct {
	rcv    *Receiver
	window int

	// per pending/recent data frame: aggregated energies and quality
	agg     map[int]*streamAgg
	emitted int // next data frame index to emit
}

type streamAgg struct {
	sum  []float64
	qual []float64
	// n counts contributing captures per Block; an integer so the
	// no-contribution test stays exact (no float equality).
	n        []int
	captures int
}

// NewStreamingReceiver wraps a receiver configuration with a trailing
// calibration window of the given length (data frames). Windows shorter
// than ~12 frames starve the per-Block level estimates.
func NewStreamingReceiver(cfg ReceiverConfig, window int) (*StreamingReceiver, error) {
	if window < 4 {
		return nil, fmt.Errorf("core: calibration window %d too short", window)
	}
	rcv, err := NewReceiver(cfg)
	if err != nil {
		return nil, err
	}
	return &StreamingReceiver{rcv: rcv, window: window, agg: make(map[int]*streamAgg)}, nil
}

// Receiver exposes the wrapped physical-layer receiver.
func (s *StreamingReceiver) Receiver() *Receiver { return s.rcv }

// Push ingests one capture taken at time t (exposure start) and returns any
// data frames that became decodable. Frames are emitted in order; a frame
// no capture observed is emitted with zero captures.
func (s *StreamingReceiver) Push(capture *frame.Frame, t, exposure float64) []*FrameDecode {
	period := s.rcv.DataFramePeriod()
	mid := t + exposure/2
	d := int(mid / period)
	if d >= 0 {
		t0, t1 := s.rcv.steadyWindow(d, exposure)
		if mid >= t0 && mid <= t1 {
			scores, quality := s.rcv.MeasureCaptureAt(capture, t)
			a := s.agg[d]
			if a == nil {
				n := s.rcv.cfg.Layout.NumBlocks()
				a = &streamAgg{sum: make([]float64, n), qual: make([]float64, n), n: make([]int, n)}
				s.agg[d] = a
			}
			for j, sc := range scores {
				if math.IsNaN(sc) {
					continue
				}
				a.sum[j] += sc
				a.qual[j] += quality[j]
				a.n[j]++
			}
			a.captures++
		}
	}
	// Emit every frame whose steady window has fully passed.
	var out []*FrameDecode
	for float64(s.emitted)*period+period/2 < t {
		//lint:ignore preallocate the emit window yields 0–1 frames per push; a hint would overshoot
		out = append(out, s.finalize(s.emitted))
		s.emitted++
	}
	return out
}

// finalize decodes data frame d against the trailing-window calibration and
// drops aggregates that fell out of every future window.
func (s *StreamingReceiver) finalize(d int) *FrameDecode {
	a := s.agg[d]
	if a == nil || a.captures == 0 {
		return s.rcv.emptyDecode(d)
	}
	nBlocks := s.rcv.cfg.Layout.NumBlocks()
	scores := make([]float64, nBlocks)
	quality := make([]float64, nBlocks)
	for j := 0; j < nBlocks; j++ {
		if a.n[j] == 0 {
			scores[j] = math.NaN()
			continue
		}
		scores[j] = a.sum[j] / float64(a.n[j])
		quality[j] = a.qual[j] / float64(a.n[j])
	}

	// Trailing-window per-Block levels.
	lo := make([]float64, nBlocks)
	hi := make([]float64, nBlocks)
	series := make([]float64, 0, s.window)
	for j := 0; j < nBlocks; j++ {
		series = series[:0]
		for w := d; w > d-s.window && w >= 0; w-- {
			if wa := s.agg[w]; wa != nil && wa.n[j] > 0 {
				series = append(series, wa.sum[j]/float64(wa.n[j]))
			}
		}
		if len(series) == 0 {
			lo[j] = math.Inf(1)
			hi[j] = math.Inf(-1)
			continue
		}
		sort.Float64s(series)
		lo[j], hi[j] = levelPercentiles(series)
	}
	fd := s.rcv.decideFrame(d, a.captures, scores, quality, lo, hi)
	// Garbage-collect aggregates older than any future window.
	delete(s.agg, d-s.window)
	return fd
}
