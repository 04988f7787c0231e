package core

import (
	"fmt"
	"math"

	"inframe/internal/frame"
)

// StreamingReceiver is the online driver of the receiver's decoder: captures
// are pushed as they arrive and data frames are emitted as soon as their
// steady window has passed. It runs the batch decoder's own capture
// selection (frameOf), measurement and quality gate (observe), aggregation
// (frameAcc) and per-frame decision (decideFrame). Only the level
// calibration differs: it is computed causally over a trailing window of
// frames rather than over RecalibrateEvery tiles of the whole run.
//
// Besides enabling live operation, the sliding window lets the calibration
// track content drift: a Block whose texture changes (a moving edge passes
// through) poisons only the frames inside the window, not the whole run.
type StreamingReceiver struct {
	rcv    *Receiver
	window int

	acc     map[int]*frameAcc // pending and recent data frames' aggregates
	emitted int               // next data frame index to emit
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
	return &StreamingReceiver{rcv: rcv, window: window, acc: make(map[int]*frameAcc)}, nil
}

// Receiver exposes the wrapped physical-layer receiver.
func (s *StreamingReceiver) Receiver() *Receiver { return s.rcv }

// Push ingests one capture taken at time t (exposure start) and returns any
// data frames that became decodable: every frame whose steady window ends
// before t, in order. A frame no capture observed — or whose every capture
// the MinCaptureQuality gate excluded — is emitted with zero captures, so by
// contract a forward jump in t emits one empty decode per skipped frame. A
// non-finite t neither feeds nor advances the stream; a nil capture, or one
// whose size is not the receiver's capture size, feeds nothing but still
// advances it.
func (s *StreamingReceiver) Push(capture *frame.Frame, t, exposure float64) []*FrameDecode {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return nil
	}
	if d, ok := s.rcv.frameOf(t, exposure); ok {
		if o := s.rcv.observe(capture, t, false); o.scored && !o.excluded {
			a := s.acc[d]
			if a == nil {
				a = newFrameAcc(s.rcv.cfg.Layout.NumBlocks())
				s.acc[d] = a
			}
			a.add(o.scores, o.quality)
		}
	}
	period := s.rcv.DataFramePeriod()
	var out []*FrameDecode
	for float64(float64(s.emitted)*period)+float64(period/2) < t {
		out = append(out, s.finalize(s.emitted))
		s.emitted++
	}
	return out
}

// finalize decodes data frame d against the levels calibrated over its
// trailing window, after dropping the aggregate that fell out of every
// future window.
func (s *StreamingReceiver) finalize(d int) *FrameDecode {
	delete(s.acc, d-s.window)
	a := s.acc[d]
	if a == nil {
		return s.rcv.emptyDecode(d)
	}
	win := make([]*frameAcc, 0, s.window)
	for w := max(d-s.window+1, 0); w <= d; w++ {
		win = append(win, s.acc[w])
	}
	// One worker: the window is a few frames deep, and a fan-out per
	// streamed frame would move work across goroutines, which also makes
	// the measurement's per-P sync.Pool integer scratch miss.
	lo, hi := s.rcv.calibrateLevels(win, 1)
	return s.rcv.decideFrame(d, a, lo, hi)
}
