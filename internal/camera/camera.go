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
	"sync"

	"inframe/internal/detrng"
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
	// the sensor's output rows split into this many contiguous chunks, each
	// streaming the display rows its resample taps read through its own
	// ring of a few rows. 0 means GOMAXPROCS; 1 forces the sequential path.
	// Captures are bit-identical at any worker count: chunks write disjoint
	// output rows, a display row two chunks share is integrated by each
	// from identical inputs, and the noise RNG is seeded from the capture
	// index, never from worker identity.
	Workers int
	// Pool supplies each capture's row-streaming scratch (one small buffer
	// holding every chunk's ring), the returned capture itself and, when
	// BlurRadius > 0, the display-resolution plane the blur needs with its
	// scratch. Working buffers are Put back inside Capture; the returned
	// capture is owned by the caller, who may Put it back after decoding
	// to close the loop. Nil means a private pool (working buffers still
	// recycle; returned captures are simply never reused).
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
	// rs is the area-resample table from the last source size (display or
	// crop window) to the sensor, built on first use and shared read-only
	// by concurrent captures; rsMu guards the swap when the size changes.
	rsMu sync.Mutex
	rs   *frame.Resampler
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
//
// A capture is one pass over output rows with no display-resolution
// plane: each Workers chunk integrates the display rows its resample taps
// read — each with the exposure window of the sensor row it maps to — into
// a pooled ring of Span() rows, resamples every output row straight from
// the ring and gamma-encodes it while it is in cache; one sequential pass
// then adds the index-keyed read noise and quantizes. A crop window is
// applied per row (window row y′ is display row y′+CropY0 shifted by
// CropX0, black outside the display). Optical blur needs whole columns, so
// with BlurRadius > 0 the rows come from a blurred display plane instead;
// the resample, encode and noise stages are the same.
func (c *Camera) Capture(d *display.Display, t0 float64, index int) *frame.Frame {
	dw, dh := d.Size()
	if dw == 0 || dh == 0 {
		panic("camera: display has no frames")
	}
	ex := shutter{d: d, t0: t0, exposure: c.cfg.Exposure, sensorH: c.cfg.H, panelH: dh}
	if c.cfg.H > 1 {
		ex.rowDt = c.cfg.ReadoutTime / float64(c.cfg.H)
	}
	var plane *frame.Frame
	if c.cfg.BlurRadius > 0 {
		// The vertical blur's float running sums need whole columns, so
		// this path integrates the full display plane first; display rows
		// write disjoint spans, so it fans out like the output rows do.
		lin := c.pool.Get(dw, dh)
		parallel.ForChunked(c.cfg.Workers, dh, func(lo, hi int) {
			for y := lo; y < hi; y++ {
				ex.integrate(y, lin.Row(y))
			}
		})
		plane = c.pool.Get(dw, dh)
		frame.BoxBlurInto(lin, plane, c.cfg.BlurRadius, c.pool)
		c.pool.Put(lin)
	}
	// The resample source is the crop window when one is set, else the
	// display; window row y′ shows display row y′+y0, shifted by x0.
	sw, sh, x0, y0 := dw, dh, 0, 0
	if c.cfg.cropped() {
		sw, sh, x0, y0 = c.cfg.CropW, c.cfg.CropH, c.cfg.CropX0, c.cfg.CropY0
	}
	shifted := sw != dw || x0 != 0
	// The window columns that show the display; the rest stay black.
	xlo, xhi := max(0, -x0), min(sw, dw-x0)
	rs := c.resampler(sw, sh)
	//lint:ignore floateq NoiseSigma==0 is the configured "noise disabled" sentinel, never a computed value
	noisy := c.cfg.NoiseSigma != 0
	out := c.pool.Get(c.cfg.W, c.cfg.H)
	// Output rows split into contiguous chunks; chunk g streams through
	// its own Span()-row ring and, when rows are shifted, integrates into
	// its own display row, all carved from one pooled buffer per capture.
	chunks := min(parallel.Resolve(c.cfg.Workers), c.cfg.H)
	ringLen := rs.Span() * sw
	lineLen := 0
	if plane == nil && shifted {
		lineLen = dw
	}
	var buf []float32
	var bufFrame *frame.Frame
	if n := chunks * (ringLen + lineLen); n > 0 {
		bufFrame = c.pool.Get(n, 1)
		buf = bufFrame.Pix
	}
	parallel.For(chunks, chunks, func(g int) {
		ring := buf[g*ringLen : (g+1)*ringLen]
		line := buf[chunks*ringLen+g*lineLen:][:lineLen]
		fill := func(wy int, row []float32) {
			y := wy + y0
			if y < 0 || y >= dh || xlo >= xhi {
				clear(row)
				return
			}
			if !shifted && plane == nil {
				ex.integrate(y, row)
				return
			}
			src := line
			if plane != nil {
				src = plane.Row(y)
			} else {
				ex.integrate(y, line)
			}
			clear(row[:xlo])
			copy(row[xlo:xhi], src[xlo+x0:xhi+x0])
			clear(row[xhi:])
		}
		lo, hi := g*c.cfg.H/chunks, (g+1)*c.cfg.H/chunks
		rs.RowsInto(out, lo, hi, ring, fill, func(row []float32) { c.encode(row, !noisy) })
	})
	c.pool.Put(bufFrame)
	c.pool.Put(plane)
	if noisy {
		c.addNoise(out, index)
	}
	return out
}

// shutter is one capture's rolling-shutter timing: sensor row r starts its
// exposure rowDt·r after t0, and display row y integrates over the window
// of the sensor row it maps to.
type shutter struct {
	d                   *display.Display
	t0, rowDt, exposure float64
	sensorH, panelH     int
}

// integrate writes display row y's mean light over its exposure window.
func (s shutter) integrate(y int, dst []float32) {
	sensorRow := y * s.sensorH / s.panelH
	a := s.t0 + float64(float64(sensorRow)*s.rowDt)
	s.d.RowAverage(y, a, a+s.exposure, dst)
}

// resampler returns the resampler from a w×h source to the sensor, building
// it only when the source size differs from the last capture's.
func (c *Camera) resampler(w, h int) *frame.Resampler {
	c.rsMu.Lock()
	defer c.rsMu.Unlock()
	if c.rs != nil {
		if sw, sh := c.rs.Source(); sw == w && sh == h {
			return c.rs
		}
	}
	c.rs = frame.NewResampler(w, h, c.cfg.W, c.cfg.H)
	return c.rs
}

// encode converts one row of linear luminance (0..255 scale) to
// gamma-encoded values in place, through the camera's Q16 fixed-point
// curve table (the error bound against the exact math.Pow curve is in
// fixed.Gamma's doc), and, with quantize set, rounds each to its 8-bit
// code.
func (c *Camera) encode(row []float32, quantize bool) {
	c.gamma.EncodeRow(row)
	if quantize {
		for i, v := range row {
			row[i] = float32(fixed.Round8(v))
		}
	}
}

// addNoise adds deterministic Gaussian read noise for capture index to the
// encoded capture and quantizes it, row by row in pixel order: pixel i
// takes the i-th draw of the index-keyed stream (math/rand's stream of
// that seed, see detrng.Stream), and v + float32(n·σ) then Round8 is the
// float32 arithmetic of adding the noise and quantizing in two sweeps.
func (c *Camera) addNoise(f *frame.Frame, index int) {
	rng := detrng.NewStream(c.cfg.Seed + int64(index)*1000003)
	for y := 0; y < f.H; y++ {
		row := f.Row(y)
		rng.AddNormal(row, c.cfg.NoiseSigma)
		for x, v := range row {
			row[x] = float32(fixed.Round8(v))
		}
	}
	rng.Release()
}
