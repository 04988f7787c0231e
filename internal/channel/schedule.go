package channel

import (
	"math"
	"sync/atomic"

	"inframe/internal/camera"
	"inframe/internal/display"
	"inframe/internal/frame"
	"inframe/internal/impair"
	"inframe/internal/parallel"
)

// Schedule is the capture timetable of one camera reading one display: how
// many captures fit the displayed duration, when each exposes, and the
// drift-skewed period that spaces them. It is the single capture policy of
// the repository — Simulate, Link.CaptureAll and every fleet receiver draw
// their captures from it, so a fleet member sees exactly the captures a
// standalone link with the same camera, start and impairments would.
type Schedule struct {
	// Times holds every capture's exposure start in capture order; its
	// length is the capture count (0 when nothing fits).
	Times []float64
	// Period is the camera frame period skewed by the configured clock
	// drift.
	Period float64
	// stack is the impairment pipeline the schedule was drawn from. A nil
	// or all-zero impairment config yields the identity stack: no drift, no
	// jitter, and captures pass through ApplyFrame and ApplySequence
	// untouched.
	stack *impair.Stack
	// span is the exposure + readout window each capture integrates over.
	span float64
}

// NewSchedule lays out the captures of camera cam starting start seconds
// after the first displayed frame of a dur-second transmission, under the
// impairments ic (nil for a clean channel; it must have passed Validate).
// The count budget leaves room for the exposure + readout window and for
// the worst-case start jitter, so every scheduled capture fits inside the
// displayed duration even at the jitter extreme:
//
//	n = (dur − start − exposure − readout − StartJitter) / period.
//
// See Config.CameraStart for how negative and late starts behave.
func NewSchedule(dur, start float64, cam camera.Config, ic *impair.Config) *Schedule {
	var c impair.Config
	if ic != nil {
		c = *ic
	}
	st := impair.New(c)
	s := &Schedule{
		Period: st.Period(1 / cam.FPS),
		stack:  st,
		span:   cam.Exposure + cam.ReadoutTime,
	}
	n := int((dur - start - s.span - c.StartJitter) / s.Period)
	if n <= 0 {
		return s
	}
	s.Times = make([]float64, n)
	for i := range s.Times {
		s.Times[i] = st.CaptureTime(i, start, s.Period)
	}
	return s
}

// Capturer drives a Schedule against a display as its frames arrive:
// capture i is dispatched onto a worker pool the moment the display holds
// every frame capture i's exposure + readout window touches, so a renderer
// can keep pushing frames while the captures already covered integrate
// behind it. Each capture runs Camera.Capture at the camera's own Workers
// and then the schedule's per-capture impairments. A collecting capturer
// (Start) stores each finished capture in its index slot for Finish; a
// streaming one (Stream) hands it to a consumer instead. Every random
// stream is keyed by capture index, so the output is bit-identical at any
// pool width. Horizon tells the caller how far back the display must still
// reach.
type Capturer struct {
	s      *Schedule
	cam    *camera.Camera
	d      *display.Display
	pool   *parallel.Pool
	frameT float64
	// exposure feeds the flicker integral; out is the camera's frame pool,
	// which takes dropped and streamed captures back and lends duplicates.
	exposure float64
	out      *frame.Pool
	// caps collects the finished captures (collecting capturers only).
	caps []*frame.Frame
	// deliver is a streaming capturer's consumer, and slot[i] capture i's
	// position in the delivered sequence (−1 when dropped); copies[i] is 2
	// for a duplicated capture, which also fills slot[i]+1.
	deliver func(k int, f *frame.Frame, t float64)
	slot    []int
	copies  []int8
	next    int
	// earliest[i] is the earliest exposure start among captures i..n−1
	// (suffix minima: start jitter makes Times non-monotone), with a +Inf
	// sentinel at n. done[i] is set once capture i has finished reading the
	// display, and low is the low-water mark below which every capture has
	// finished; captures finish out of order on the pool, so Horizon
	// advances low past the finished prefix.
	earliest []float64
	done     []atomic.Bool
	low      int
}

// Start returns a capturer that runs the schedule's captures of cam
// against d as tasks on pool and collects them for Finish. A pool of width
// 1 runs each capture inline; a pool shared with other capturers (and
// their Finish calls) is fine, since tasks only write their own slots.
func (s *Schedule) Start(cam *camera.Camera, d *display.Display, pool *parallel.Pool) *Capturer {
	c := s.start(cam, d, pool)
	c.caps = make([]*frame.Frame, len(s.Times))
	return c
}

// Stream is Start for a consumer that takes the delivered sequence capture
// by capture instead of collecting it. As capture i finishes, deliver(k, f,
// t) runs once for each delivered copy: at (k, Times[i]) and, when the
// stack duplicates it, again at (k+1, Times[i]+Period); a dropped capture
// is not delivered. k is the copy's position in the sequence Finish would
// have returned, and n is that sequence's length. deliver runs on a pool
// worker, concurrently with other captures' calls, and borrows f only for
// the call: the capturer returns f to the camera's pool afterwards. Finish
// then returns nothing.
func (s *Schedule) Stream(cam *camera.Camera, d *display.Display, pool *parallel.Pool, deliver func(k int, f *frame.Frame, t float64)) (c *Capturer, n int) {
	c = s.start(cam, d, pool)
	c.deliver = deliver
	c.slot = make([]int, len(s.Times))
	c.copies = make([]int8, len(s.Times))
	for i := range c.slot {
		c.slot[i] = -1
		if k := s.stack.Copies(i); k > 0 {
			c.slot[i] = n
			c.copies[i] = int8(k)
			n += k
		}
	}
	return c, n
}

func (s *Schedule) start(cam *camera.Camera, d *display.Display, pool *parallel.Pool) *Capturer {
	ccfg := cam.Config()
	n := len(s.Times)
	earliest := make([]float64, n+1)
	earliest[n] = math.Inf(1)
	for i := n - 1; i >= 0; i-- {
		earliest[i] = math.Min(s.Times[i], earliest[i+1])
	}
	return &Capturer{
		s:        s,
		cam:      cam,
		d:        d,
		pool:     pool,
		frameT:   1 / d.Config().RefreshHz,
		exposure: ccfg.Exposure,
		out:      ccfg.Pool,
		earliest: earliest,
		done:     make([]atomic.Bool, n),
	}
}

// Displayed tells the capturer the display now holds n frames and
// dispatches, in index order, every pending capture those frames cover. A
// capture not yet covered holds back later ones until Finish.
func (c *Capturer) Displayed(n int) {
	times := c.s.Times
	for c.next < len(times) {
		// The window integrates display rows over [t, t+span); frames
		// 0..ceil((t+span)/T)-1 must be on the monitor before it may run.
		if need := int(math.Ceil((times[c.next] + c.s.span) / c.frameT)); need > n {
			return
		}
		c.dispatch(c.next)
		c.next++
	}
}

func (c *Capturer) dispatch(i int) {
	t := c.s.Times[i]
	c.pool.Go(func() {
		f := c.cam.Capture(c.d, t, i)
		c.s.stack.ApplyFrame(f, i, t, c.exposure)
		c.done[i].Store(true)
		if c.deliver == nil {
			c.caps[i] = f
			return
		}
		if k := c.slot[i]; k >= 0 {
			c.deliver(k, f, t)
			if c.copies[i] == 2 {
				c.deliver(k+1, f, t+c.s.Period)
			}
		}
		c.out.Put(f)
	})
}

// Horizon returns the earliest exposure start of any capture not yet
// finished, running or still pending, or +Inf once every capture has
// finished. Every row of a capture starting at t integrates a window
// starting at or after t, and no impairment or consumer reads the display,
// so Display.Retire(Horizon()) never releases a frame a capture still
// needs. Call it from the goroutine that drives Displayed.
func (c *Capturer) Horizon() float64 {
	for c.low < len(c.done) && c.done[c.low].Load() {
		c.low++
	}
	return c.earliest[c.low]
}

// Finish runs every capture still pending — the display holds all it will
// ever hold, so float-boundary stragglers are safe — and waits for the
// pool. A collecting capturer then applies the delivery stages (drop,
// duplicate): dropped captures go back to the camera's pool and duplicates
// are drawn from it, and the returned slices are the delivered captures
// and their exposure starts. They are nil for a streaming capturer, whose
// consumer has had every delivered capture, and when the schedule holds no
// capture. The capturer must not be used afterwards.
func (c *Capturer) Finish() ([]*frame.Frame, []float64) {
	for ; c.next < len(c.s.Times); c.next++ {
		c.dispatch(c.next)
	}
	c.pool.Wait()
	if c.deliver != nil || len(c.s.Times) == 0 {
		return nil, nil
	}
	return c.s.stack.ApplySequence(c.caps, c.s.Times, c.s.Period, c.out)
}

// Abort waits for the captures already dispatched and returns the
// collected ones to the camera's pool, for a transmission that failed
// part-way.
func (c *Capturer) Abort() {
	c.pool.Wait()
	for _, f := range c.caps {
		c.out.Put(f)
	}
}
