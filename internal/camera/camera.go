// Package camera simulates the receiver-side camera of the InFrame system
// (the paper uses a Lumia 1020 capturing 1280×720 at 30 FPS from 50 cm).
//
// The simulator models the channel impairments §3.3 of the paper designs
// against:
//
//   - rolling shutter: sensor rows expose at staggered times, so one capture
//     can straddle a display-frame (and data-frame) boundary row-wise;
//   - display/camera frame-rate mismatch and free-running phase;
//   - exposure integration over multiple refresh intervals;
//   - optical blur, sensor noise, resolution mismatch and 8-bit quantization
//     ("poor capture quality").
//
// A capture samples the display's light field (linear luminance), then
// gamma-encodes back to 8-bit pixel values, as real camera ISPs do.
package camera

import (
	"fmt"
	"math/rand"

	"inframe/internal/display"
	"inframe/internal/fixed"
	"inframe/internal/frame"
	"inframe/internal/parallel"
)

// Config describes the simulated camera.
type Config struct {
	// W, H is the sensor output resolution.
	W, H int
	// FPS is the capture rate (paper: 30).
	FPS float64
	// Exposure is the per-row integration time in seconds. It must be
	// positive and at most the frame period.
	Exposure float64
	// ReadoutTime is the rolling-shutter scan time across all rows in
	// seconds; 0 models a global shutter. A binned 720p mode reads out in
	// under 10 ms.
	ReadoutTime float64
	// NoiseSigma is the additive Gaussian read-noise standard deviation in
	// 8-bit output units.
	NoiseSigma float64
	// BlurRadius is an optical defocus radius in display pixels applied
	// before spatial resampling (0 = sharp focus).
	BlurRadius int
	// Gamma is the output encoding exponent; matching the display's gamma
	// makes the net drive→capture map identity for static content.
	Gamma float64
	// Seed drives the noise generator; captures are deterministic per
	// (Seed, capture index).
	Seed int64
	// CropX0, CropY0, CropW, CropH select the display-pixel window the
	// sensor frames (zoom/offset). All zero means the camera frames the
	// whole display. The window is resampled onto the full sensor; parts
	// of the window outside the display see black (overscan: the camera
	// films the monitor plus the dark room behind it).
	CropX0, CropY0, CropW, CropH int
	// Workers bounds the rolling-shutter row synthesis within one capture:
	// rows fan out across this many goroutines. 0 means GOMAXPROCS; 1
	// forces the sequential path. Captures are bit-identical at any worker
	// count: rows write disjoint spans and the noise RNG is seeded from the
	// capture index, never from worker identity.
	Workers int
	// Pool supplies the capture working buffers (display-resolution
	// integration plane, blur scratch, crop window) and the returned
	// capture itself. Intermediates are Put back inside Capture; the
	// returned capture is owned by the caller, who may Put it back after
	// decoding to close the loop. Nil means a private pool (intermediates
	// still recycle; returned captures are simply never reused).
	Pool *frame.Pool
}

// cropped reports whether a crop window is configured.
func (c Config) cropped() bool { return c.CropW > 0 && c.CropH > 0 }

// DefaultConfig models the paper's Lumia 1020 settings scaled to the
// simulation: 30 FPS with a short exposure (a 100%-brightness monitor fills
// the sensor quickly, and every millisecond of exposure risks integrating
// across a complementary sign flip) and a binned-readout rolling shutter.
func DefaultConfig(w, h int) Config {
	return Config{
		W: w, H: h,
		FPS:         30,
		Exposure:    0.0007,
		ReadoutTime: 0.008,
		NoiseSigma:  2.5,
		BlurRadius:  1,
		Gamma:       2.2,
		Seed:        1,
	}
}

// Validate reports whether the configuration is physical.
func (c Config) Validate() error {
	if c.W <= 0 || c.H <= 0 {
		return fmt.Errorf("camera: invalid sensor size %dx%d", c.W, c.H)
	}
	if c.FPS <= 0 {
		return fmt.Errorf("camera: FPS must be positive, got %v", c.FPS)
	}
	if c.Exposure <= 0 {
		return fmt.Errorf("camera: Exposure must be positive, got %v", c.Exposure)
	}
	period := 1 / c.FPS
	if c.Exposure > period {
		return fmt.Errorf("camera: Exposure %v exceeds frame period %v", c.Exposure, period)
	}
	if c.ReadoutTime < 0 || c.ReadoutTime > period {
		return fmt.Errorf("camera: ReadoutTime %v outside [0, frame period]", c.ReadoutTime)
	}
	if c.NoiseSigma < 0 {
		return fmt.Errorf("camera: NoiseSigma must be non-negative, got %v", c.NoiseSigma)
	}
	if c.BlurRadius < 0 {
		return fmt.Errorf("camera: BlurRadius must be non-negative, got %v", c.BlurRadius)
	}
	if c.Gamma <= 0 {
		return fmt.Errorf("camera: Gamma must be positive, got %v", c.Gamma)
	}
	if (c.CropW > 0) != (c.CropH > 0) {
		return fmt.Errorf("camera: crop needs both dimensions, got %dx%d", c.CropW, c.CropH)
	}
	if c.Workers < 0 {
		return fmt.Errorf("camera: Workers must be non-negative, got %d", c.Workers)
	}
	return nil
}

// Camera captures frames from a simulated display.
type Camera struct {
	cfg  Config
	pool *frame.Pool
	// gamma is the ISP's encode curve as a Q16 fixed-point lookup table,
	// built once per camera: the per-pixel math.Pow it replaces was the
	// single largest EndToEnd profile entry (see DESIGN.md §5j).
	gamma *fixed.Gamma
}

// New returns a camera for the given configuration.
func New(cfg Config) (*Camera, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pool := cfg.Pool
	if pool == nil {
		pool = frame.NewPool()
	}
	return &Camera{cfg: cfg, pool: pool, gamma: fixed.NewGamma(cfg.Gamma)}, nil
}

// Config returns the camera configuration.
func (c *Camera) Config() Config { return c.cfg }

// FramePeriod returns the capture interval in seconds.
func (c *Camera) FramePeriod() float64 { return 1 / c.cfg.FPS }

// Capture exposes one frame starting at time t0 (the exposure start of the
// first sensor row) and returns the 8-bit-quantized capture. index selects
// the deterministic noise stream for this capture. The returned frame is
// drawn from the camera's pool; the caller owns it and may Put it back to
// that pool when done with it.
func (c *Camera) Capture(d *display.Display, t0 float64, index int) *frame.Frame {
	dw, dh := d.Size()
	if dw == 0 || dh == 0 {
		panic("camera: display has no frames")
	}
	// Integrate the light field at display resolution, one display row at a
	// time, each row using the exposure window of the sensor row it maps to.
	// Rows write disjoint spans of lin, so the rolling-shutter synthesis
	// fans out across workers with a bit-identical ordered merge; RowAverage
	// writes each destination row in place, so no per-chunk scratch row is
	// needed. Every working buffer comes from the camera's pool and goes
	// back once the next stage has consumed it.
	lin := c.pool.Get(dw, dh)
	var rowDt float64
	if c.cfg.H > 1 {
		rowDt = c.cfg.ReadoutTime / float64(c.cfg.H)
	}
	parallel.ForChunked(c.cfg.Workers, dh, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			sensorRow := y * c.cfg.H / dh
			a := t0 + float64(sensorRow)*rowDt
			d.RowAverage(y, a, a+c.cfg.Exposure, lin.Row(y))
		}
	})
	if c.cfg.BlurRadius > 0 {
		blurred := c.pool.Get(dw, dh)
		frame.BoxBlurInto(lin, blurred, c.cfg.BlurRadius, c.pool)
		c.pool.Put(lin)
		lin = blurred
	}
	if c.cfg.cropped() {
		// The window arrives zeroed from the pool, so parts extending
		// beyond the display stay black (overscan).
		window := c.pool.Get(c.cfg.CropW, c.cfg.CropH)
		window.Blit(lin, -c.cfg.CropX0, -c.cfg.CropY0)
		c.pool.Put(lin)
		lin = window
	}
	out := c.pool.Get(c.cfg.W, c.cfg.H)
	frame.ResampleInto(lin, out)
	c.pool.Put(lin)
	c.encode(out)
	c.addNoise(out, index)
	out.Quantize()
	return out
}

// encode converts linear luminance (0..255 scale) to gamma-encoded 8-bit
// values in place, through the camera's Q16 fixed-point curve table (the
// error bound against the exact math.Pow curve is in fixed.Gamma's doc).
func (c *Camera) encode(f *frame.Frame) {
	g := c.gamma
	for i, v := range f.Pix {
		f.Pix[i] = g.Encode8(v)
	}
}

// addNoise adds deterministic Gaussian read noise for capture index.
func (c *Camera) addNoise(f *frame.Frame, index int) {
	//lint:ignore floateq NoiseSigma==0 is the configured "noise disabled" sentinel, never a computed value
	if c.cfg.NoiseSigma == 0 {
		return
	}
	rng := rand.New(rand.NewSource(c.cfg.Seed + int64(index)*1000003))
	sigma := c.cfg.NoiseSigma
	for i := range f.Pix {
		f.Pix[i] += float32(rng.NormFloat64() * sigma)
	}
}
