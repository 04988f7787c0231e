package channel

import (
	"math"

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
// capture i is dispatched into a worker pool the moment the display holds
// every frame capture i's exposure + readout window touches, so a renderer
// can keep pushing frames while the captures already covered integrate
// behind it. Each capture runs Camera.Capture at the camera's own Workers
// and then the schedule's per-capture impairments. Captures land in
// index-addressed slots and every random stream is keyed by capture index,
// so the output is bit-identical at any pool width.
type Capturer struct {
	s      *Schedule
	cam    *camera.Camera
	d      *display.Display
	pool   *parallel.Pool
	frameT float64
	// exposure feeds the flicker integral; out is the camera's frame pool,
	// which takes dropped captures back and lends duplicates.
	exposure float64
	out      *frame.Pool
	caps     []*frame.Frame
	next     int
}

// Start returns a capturer that runs the schedule's captures of cam
// against d on a pool of the given width (0 means GOMAXPROCS, 1 runs each
// capture inline).
func (s *Schedule) Start(cam *camera.Camera, d *display.Display, workers int) *Capturer {
	ccfg := cam.Config()
	return &Capturer{
		s:        s,
		cam:      cam,
		d:        d,
		pool:     parallel.NewPool(workers),
		frameT:   1 / d.Config().RefreshHz,
		exposure: ccfg.Exposure,
		out:      ccfg.Pool,
		caps:     make([]*frame.Frame, len(s.Times)),
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
		c.caps[i] = f
	})
}

// Finish runs every capture still pending — the display holds all it will
// ever hold, so float-boundary stragglers are safe — waits for the pool,
// and applies the delivery stages (drop, duplicate). Dropped captures go
// back to the camera's pool and duplicates are drawn from it. The returned
// slices are the delivered captures and their exposure starts, both nil
// when the schedule holds no capture; the capturer must not be used
// afterwards.
func (c *Capturer) Finish() ([]*frame.Frame, []float64) {
	if len(c.s.Times) == 0 {
		return nil, nil
	}
	for ; c.next < len(c.s.Times); c.next++ {
		c.dispatch(c.next)
	}
	c.pool.Wait()
	return c.s.stack.ApplySequence(c.caps, c.s.Times, c.s.Period, c.out)
}

// Abort waits for the captures already dispatched and returns them to the
// camera's pool, for a transmission that failed part-way.
func (c *Capturer) Abort() {
	c.pool.Wait()
	for _, f := range c.caps[:c.next] {
		c.out.Put(f)
	}
}
