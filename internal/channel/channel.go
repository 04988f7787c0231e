// Package channel composes the display and camera simulators into the full
// screen→camera link of the InFrame system, providing the one-call
// simulation used by experiments: multiplexed frames in, captured frames
// (with exposure timing) out.
package channel

import (
	"fmt"
	"math"

	"inframe/internal/camera"
	"inframe/internal/core"
	"inframe/internal/display"
	"inframe/internal/frame"
	"inframe/internal/impair"
	"inframe/internal/parallel"
)

// Config describes one end-to-end link.
type Config struct {
	// Display is the monitor model.
	Display display.Config
	// Camera is the capture model.
	Camera camera.Config
	// CameraStart offsets the first exposure relative to the first
	// displayed frame, modelling free-running clocks (0 = aligned).
	//
	// Any finite offset is defined, not just [0, frame period); New
	// rejects NaN and ±Inf:
	//
	//   - A negative offset starts exposures before the first display
	//     frame. The display clamps: windows before t=0 integrate the
	//     first pushed frame as if it had always been on the monitor (a
	//     camera that starts rolling while the screen shows a static
	//     image). The capture-count budget shrinks accordingly — the
	//     formula n = (duration − CameraStart − exposure − readout) /
	//     period grows n for negative offsets, and every extra capture
	//     sees the held first frame.
	//   - Offsets of one display-frame period or more simply skip that
	//     much of the transmission; with a free-running camera clock the
	//     offset is arbitrary, so no wrap-around is applied. Offsets
	//     beyond the displayed duration leave no room for a capture and
	//     Simulate reports the "too short" error.
	CameraStart float64
	// Workers bounds the capture pool of Simulate and CaptureAll: in
	// Simulate, display frame k+1 renders while captures whose exposure
	// windows are already covered run behind it. 0 means GOMAXPROCS; 1 runs
	// every capture inline. Results are bit-identical at any worker count —
	// a capture is dispatched only once every display frame its exposure
	// window touches has been pushed, and captures merge by index.
	Workers int
	// Pool supplies the frame buffers of the capture side (see
	// camera.Config.Pool); it is copied into the camera configuration when
	// the camera has no pool of its own. Share one pool with the
	// multiplexer and receiver (core.Params.Pool, ReceiverConfig.Pool) and
	// Put captures back after decoding for an allocation-free steady
	// state. Nil keeps per-stage private pools.
	Pool *frame.Pool
	// Impair optionally corrupts the link with a seeded, deterministic
	// fault stack — clock drift, exposure jitter, capture drop and
	// duplication, lighting and sensor faults (see internal/impair). Nil
	// or an all-zero config builds the identity stack (see Schedule), so
	// clean results stay bit-identical.
	Impair *impair.Config
}

// DefaultConfig returns the paper's setup scaled to a capture resolution:
// 120 Hz display, 30 FPS rolling-shutter camera. The display's pixel
// response is zeroed: the paper's Eizo FG2421 is a strobed fast-GtG gaming
// panel, and an un-strobed 2 ms exponential response would smear every
// complementary pair into the next frame (see the response ablation in the
// experiments package for the quantified effect).
func DefaultConfig(capW, capH int) Config {
	dcfg := display.DefaultConfig()
	dcfg.ResponseTime = 0
	return Config{
		Display: dcfg,
		Camera:  camera.DefaultConfig(capW, capH),
	}
}

// Receiver returns the decoder matched to this link and the transmitter
// params p: core.DefaultReceiverConfig at the camera's W×H, timed by the
// display's refresh rate and the camera's exposure and readout, running on
// the link's Workers and Pool. Per-decode choices (capture gating,
// recalibration windows, a Pose, the detector) stay the caller's.
func (c Config) Receiver(p core.Params) core.ReceiverConfig {
	rcfg := core.DefaultReceiverConfig(p, c.Camera.W, c.Camera.H)
	rcfg.RefreshHz = c.Display.RefreshHz
	rcfg.Exposure = c.Camera.Exposure
	rcfg.ReadoutTime = c.Camera.ReadoutTime
	rcfg.Workers = c.Workers
	rcfg.Pool = c.Pool
	return rcfg
}

// Link is an instantiated screen→camera channel.
type Link struct {
	Display *display.Display
	Camera  *camera.Camera
	cfg     Config
}

// New builds a link from the configuration.
func New(cfg Config) (*Link, error) {
	d, err := display.New(cfg.Display)
	if err != nil {
		return nil, fmt.Errorf("channel: %w", err)
	}
	if math.IsNaN(cfg.CameraStart) || math.IsInf(cfg.CameraStart, 0) {
		return nil, fmt.Errorf("channel: CameraStart must be finite, got %v", cfg.CameraStart)
	}
	if cfg.Pool != nil && cfg.Camera.Pool == nil {
		cfg.Camera.Pool = cfg.Pool
	}
	if err := cfg.Impair.Validate(); err != nil {
		return nil, fmt.Errorf("channel: %w", err)
	}
	c, err := camera.New(cfg.Camera)
	if err != nil {
		return nil, fmt.Errorf("channel: %w", err)
	}
	return &Link{Display: d, Camera: c, cfg: cfg}, nil
}

// Config returns the link configuration.
func (l *Link) Config() Config { return l.cfg }

// Transmit pushes pre-rendered display frames onto the monitor.
func (l *Link) Transmit(frames []*frame.Frame) error {
	for i, f := range frames {
		if err := l.Display.Push(f); err != nil {
			return fmt.Errorf("channel: frame %d: %w", i, err)
		}
	}
	return nil
}

// CaptureAll captures every capture of the link's Schedule from the frames
// already on the monitor — starting at CameraStart, under Config.Impair —
// on a pool of Config.Workers, returning the delivered frames and their
// exposure start times. An empty display yields none.
func (l *Link) CaptureAll() ([]*frame.Frame, []float64) {
	return l.schedule(l.Display.Duration()).Start(l.Camera, l.Display, parallel.NewPool(l.cfg.Workers)).Finish()
}

// schedule is the link's capture timetable for a dur-second transmission.
func (l *Link) schedule(dur float64) *Schedule {
	return NewSchedule(dur, l.cfg.CameraStart, l.cfg.Camera, l.cfg.Impair)
}

// Result bundles a one-shot simulation's outputs.
type Result struct {
	Captures []*frame.Frame
	Times    []float64
	Exposure float64
}

// Recycle puts every capture back into p (typically the shared pipeline
// pool the captures came from) once decoding is done, and clears the
// capture slice so the frames cannot be used after their return. A nil
// pool drops the frames.
func (r *Result) Recycle(p *frame.Pool) {
	for i, f := range r.Captures {
		p.Put(f)
		r.Captures[i] = nil
	}
	r.Captures = r.Captures[:0]
}

// Simulate runs a multiplexer for nDisplayFrames through the link and
// captures the whole sequence: the standard experiment entry point.
//
// Rendering and capture overlap: each display frame is rendered straight
// into the monitor's next 8-bit drive slot (Multiplexer.PushFrame — no
// float render frame exists on this path), and the link's Capturer
// dispatches every capture whose exposure + readout window the monitor now
// covers onto a pool of Config.Workers while the next frame renders. The
// captured sequence is bit-identical at any worker count — see
// Config.Workers — and to rendering the whole sequence first
// (Link.Transmit) and capturing afterwards (Link.CaptureAll).
//
// Memory follows the exposure window, not the run: after each push the
// monitor retires every frame older than the earliest exposure start of a
// capture not yet finished (Capturer.Horizon), reusing its drive slot for a
// later frame. The link is private, so nothing else can read a retired
// frame, and once every capture has finished — on the error paths too — its
// display is closed, handing the drive slots to the next link's display.
func Simulate(m *core.Multiplexer, nDisplayFrames int, cfg Config) (*Result, error) {
	link, err := New(cfg)
	if err != nil {
		return nil, err
	}
	// Every return below has waited for the captures (Finish or Abort).
	defer link.Display.Close()
	sched := link.schedule(float64(nDisplayFrames) / cfg.Display.RefreshHz)
	c := sched.Start(link.Camera, link.Display, parallel.NewPool(cfg.Workers))
	for k := 0; k < nDisplayFrames; k++ {
		if err := m.PushFrame(link.Display, k); err != nil {
			c.Abort()
			return nil, fmt.Errorf("channel: frame %d: %w", k, err)
		}
		c.Displayed(k + 1)
		link.Display.Retire(c.Horizon())
	}
	caps, times := c.Finish()
	if len(sched.Times) == 0 {
		return nil, fmt.Errorf("channel: displayed duration too short for any capture")
	}
	return &Result{Captures: caps, Times: times, Exposure: cfg.Camera.Exposure}, nil
}
