// Package display simulates the transmitter-side monitor of the InFrame
// system (the paper uses an Eizo FG2421: 120 Hz, 1920×1080, brightness 100%).
//
// The display accepts a sequence of 8-bit drive frames, one per refresh
// interval, and exposes the resulting *light field*: the linear-light
// luminance of any pixel averaged over any time window. Both receivers in
// the dual-mode channel — the human visual system model and the camera
// simulator — consume the light field through time-window integration,
// which is exactly how eyes (temporal summation) and sensors (exposure)
// observe a screen.
//
// Two display non-idealities matter for InFrame and are modelled:
//
//   - gamma: drive values map to luminance via a power law, so a ±δ drive
//     modulation produces *luminance* modulation that depends on the local
//     video level (dark content compresses the chessboard);
//   - pixel response: LCD cells approach their target exponentially with a
//     gray-to-gray time constant, smearing consecutive frames into each
//     other at 120 Hz.
//
// Drive frames are stored as bytes (the cable carries 8-bit values) and
// mapped to luminance through a 256-entry lookup table, avoiding per-pixel
// pow() in the hot path. A display keeps every pushed frame until its owner
// calls Retire, which hands the drive slots (and response states) that no
// later read can touch back for reuse: a caller that retires behind its
// readers, as channel.Simulate does behind its pending captures and
// fleet.Run behind every member's, holds
// memory in proportion to the read window, not to the run's length, so
// hour-long simulations fit in memory. Close hands every drive slot on to
// the next display of the same size, so a run of links reuses one set.
package display

import (
	"fmt"
	"math"
	"sync"

	"inframe/internal/frame"
)

// Config describes the simulated monitor.
type Config struct {
	// RefreshHz is the refresh rate; the paper's setup runs at 120.
	RefreshHz float64
	// Brightness scales peak luminance, 0..1 (paper: 100% → 1.0).
	Brightness float64
	// Gamma is the drive-to-luminance exponent (typical LCD: 2.2).
	Gamma float64
	// ResponseTime is the exponential gray-to-gray time constant in
	// seconds (0 = ideal instant pixels; fast gaming LCD ≈ 2 ms).
	// Nonzero response keeps one float32 state frame per live refresh;
	// Retire releases states together with their drive frames, so the
	// memory stays bounded for callers that retire.
	ResponseTime float64
	// StrobeDuty enables a strobed backlight (the FG2421's "Turbo 240"
	// black-frame insertion): light is emitted only during the final
	// StrobeDuty fraction of each refresh interval, scaled 1/duty so the
	// mean luminance is unchanged. The strobe fires after the LCD has
	// settled, so pixel response is hidden and ResponseTime is ignored.
	// 0 disables strobing (continuous backlight).
	StrobeDuty float64
}

// DefaultConfig models the paper's Eizo FG2421 at 100% brightness.
func DefaultConfig() Config {
	return Config{RefreshHz: 120, Brightness: 1.0, Gamma: 2.2, ResponseTime: 0.002}
}

// Validate reports whether the configuration is physical.
func (c Config) Validate() error {
	if c.RefreshHz <= 0 {
		return fmt.Errorf("display: RefreshHz must be positive, got %v", c.RefreshHz)
	}
	if c.Brightness <= 0 || c.Brightness > 1 {
		return fmt.Errorf("display: Brightness must be in (0,1], got %v", c.Brightness)
	}
	if c.Gamma <= 0 {
		return fmt.Errorf("display: Gamma must be positive, got %v", c.Gamma)
	}
	if c.ResponseTime < 0 {
		return fmt.Errorf("display: ResponseTime must be non-negative, got %v", c.ResponseTime)
	}
	if c.StrobeDuty < 0 || c.StrobeDuty > 1 {
		return fmt.Errorf("display: StrobeDuty must be in [0,1], got %v", c.StrobeDuty)
	}
	return nil
}

// maxInterval bounds |t/T| for a window end RowAverage integrates: below
// 2⁵³ every interval index is an exact float64 integer, so the interval
// loop's bounds convert to int without implementation-defined overflow.
const maxInterval = 1 << 53

// Display holds the pushed drive frames and the derived light field state.
// Luminance is expressed on a 0..255 linear scale (255 = peak white at
// Brightness 1.0) so it composes naturally with 8-bit pixel arithmetic.
//
// A Display is safe for concurrent use by one pusher and any number of
// readers: every light-field query takes the read lock, while a push fills
// its drive slot outside any lock and takes the write lock only to append
// it (the slot is invisible to readers until then). That is exactly the
// shape of the pipelined channel simulator, where capture workers
// integrate frames the renderer has already pushed while it keeps pushing
// new ones.
type Display struct {
	cfg  Config
	w, h int

	// mu orders pushes and Retire (writers) against the light-field
	// readers.
	mu sync.RWMutex
	// base is the index of the first live frame: Retire released every
	// frame below it. drive[k-base] is the quantized 8-bit drive frame of
	// interval k, for base ≤ k < base+len(drive).
	base  int
	drive [][]uint8
	// lut maps a drive value to linear luminance.
	lut [256]float32
	// state[k-base] is the actual luminance at the *start* of interval k
	// when ResponseTime > 0, accounting for the exponential response;
	// extended eagerly at push time so readers never mutate.
	state []*frame.Frame
	// freeDrive and freeState hold retired buffers for later pushes to
	// overwrite, so a retiring caller reaches a steady state with no
	// allocation per push.
	freeDrive [][]uint8
	freeState []*frame.Frame
	// closed is set by Close: every slot is gone, reads panic and pushes
	// fail.
	closed bool
}

// driveSlots recycles drive slots across displays: Close hands a display's
// slots here, and PushDrive draws from it once its own free list is empty.
// Scratch only — PushDrive's fill overwrites every code — so sync.Pool's
// scheduling-dependent reuse cannot affect what a display shows.
var driveSlots sync.Pool

// newSlot returns an n-code drive slot from driveSlots, dropping any slot
// of another panel size it meets, or a fresh one.
func newSlot(n int) []uint8 {
	for {
		s, _ := driveSlots.Get().(*[]uint8)
		if s == nil {
			return make([]uint8, n)
		}
		if len(*s) == n {
			return *s
		}
	}
}

// New returns a display with the given config; frame dimensions are fixed by
// the first pushed frame.
func New(cfg Config) (*Display, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Display{cfg: cfg}
	for v := 0; v < 256; v++ {
		d.lut[v] = float32(cfg.Brightness * 255 * math.Pow(float64(v)/255, cfg.Gamma))
	}
	return d, nil
}

// Config returns the display configuration.
func (d *Display) Config() Config { return d.cfg }

// FrameDuration returns the length of one refresh interval in seconds.
func (d *Display) FrameDuration() float64 { return 1 / d.cfg.RefreshHz }

// NumFrames returns how many drive frames have been pushed.
func (d *Display) NumFrames() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.base + len(d.drive)
}

// Duration returns the total displayed time in seconds.
func (d *Display) Duration() float64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return float64(d.base+len(d.drive)) / d.cfg.RefreshHz
}

// Size returns the panel resolution (0,0 before the first Push).
func (d *Display) Size() (int, int) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.w, d.h
}

// Push appends one drive frame for the next refresh interval. Drive values
// are clamped to [0,255] and quantized (the cable carries 8-bit values).
func (d *Display) Push(f *frame.Frame) error {
	return d.PushDrive(f.W, f.H, func(dst []uint8) {
		for i, v := range f.Pix {
			dst[i] = frame.Quant8(v)
		}
	})
}

// PushDrive appends one w×h drive frame for the next refresh interval,
// letting fill write the 8-bit drive codes straight into the display's
// slot: a renderer that produces drive codes needs no intermediate frame.
// fill must write every element of dst (w·h codes, row-major); a slot
// reused after Retire, or after another display's Close, still holds an
// old frame's codes. fill runs outside the display's lock — the slot is
// invisible to readers until PushDrive appends it — so captures keep
// integrating earlier frames meanwhile. A size that does not match the
// panel, or a push after Close, is rejected before fill runs.
func (d *Display) PushDrive(w, h int, fill func(dst []uint8)) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return fmt.Errorf("display: push after Close")
	}
	if d.w != 0 && (w != d.w || h != d.h) {
		d.mu.Unlock()
		return fmt.Errorf("display: frame %dx%d does not match panel %dx%d", w, h, d.w, d.h)
	}
	var dr []uint8
	if n := len(d.freeDrive); n > 0 {
		dr = d.freeDrive[n-1]
		d.freeDrive = d.freeDrive[:n-1]
	} else {
		dr = newSlot(w * h)
	}
	d.mu.Unlock()
	fill(dr)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.w, d.h = w, h
	d.drive = append(d.drive, dr)
	if d.cfg.ResponseTime > 0 {
		d.extendState()
	}
	return nil
}

// Retire releases every drive frame (and response state) of an interval
// k < ⌊t/T⌋, T the refresh interval, for reuse by later pushes. ⌊t/T⌋ is
// the first interval RowAverage reads for a window starting at t, so every
// window starting at or after t reads only live frames; reading a released
// frame panics with its index. The last pushed frame is never released —
// reads past the end hold it. Retire(NaN) and Retire(−Inf) release
// nothing; Retire(+Inf) keeps only the last frame.
func (d *Display) Retire(t float64) {
	if math.IsNaN(t) || math.IsInf(t, -1) {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	keep := d.base + len(d.drive) - 1
	if !math.IsInf(t, 1) {
		k := math.Floor(t / d.FrameDuration())
		if k <= float64(d.base) {
			return
		}
		if k < float64(keep) {
			keep = int(k) // base < k < keep: the conversion is exact
		}
	}
	r := keep - d.base
	if r <= 0 {
		return
	}
	d.drive, d.freeDrive = release(d.drive, d.freeDrive, r)
	if len(d.state) > 0 {
		d.state, d.freeState = release(d.state, d.freeState, r)
	}
	d.base = keep
}

// Close ends the display: it hands every drive slot, live or retired, to
// the slots later pushes of any display draw from, and drops the response
// states. Call it once no reader can touch the display again, as
// channel.Simulate and fleet.Run do after their last capture; reading a
// closed display panics and pushing onto it fails. NumFrames and Duration
// still report what was pushed. Close is idempotent.
func (d *Display) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.closed = true
	for _, s := range d.drive {
		driveSlots.Put(&s)
	}
	for _, s := range d.freeDrive {
		driveSlots.Put(&s)
	}
	d.base += len(d.drive)
	d.drive, d.freeDrive, d.state, d.freeState = nil, nil, nil, nil
}

// release moves the first r entries of live onto free and rebases live in
// place, so its length and capacity follow the live window, not the run.
func release[T any](live, free []T, r int) ([]T, []T) {
	free = append(free, live[:r]...)
	n := copy(live, live[r:])
	clear(live[n:])
	return live[:n], free
}

// clampFrame returns the drive frame index clamped to the pushed range: the
// first/last frame is held before t=0 and after the end.
func (d *Display) clampFrame(k int) int {
	if k < 0 {
		return 0
	}
	if n := d.base + len(d.drive); k >= n {
		return n - 1
	}
	return k
}

// checkOpen panics on a read of a closed display. Callers hold mu.
func (d *Display) checkOpen() {
	if d.closed {
		panic("display: read after Close")
	}
}

// driveFrame returns the drive codes of interval k clamped to the pushed
// range, panicking if Retire has released that frame. Callers hold mu.
func (d *Display) driveFrame(k int) []uint8 {
	k = d.clampFrame(k)
	if k < d.base {
		panicRetired(k, d.base)
	}
	return d.drive[k-d.base]
}

// panicRetired reports a read of a released frame: a caller retired ahead
// of one of its readers, which would otherwise integrate stale codes.
func panicRetired(k, base int) {
	panic(fmt.Sprintf("display: frame %d read after Retire released frames below %d", k, base))
}

// Luminance returns the steady-state linear luminance frame of drive frame
// k (clamped to the pushed range) as a freshly materialized frame. A frame
// released by Retire panics, as does any read after Close.
func (d *Display) Luminance(k int) *frame.Frame {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.luminance(k)
}

// luminance is Luminance without locking; callers hold mu.
func (d *Display) luminance(k int) *frame.Frame {
	d.checkOpen()
	if len(d.drive) == 0 {
		panic("display: no frames pushed")
	}
	out := frame.New(d.w, d.h)
	d.luminanceInto(d.driveFrame(k), out)
	return out
}

// luminanceInto maps drive codes dr to linear luminance in out.
func (d *Display) luminanceInto(dr []uint8, out *frame.Frame) {
	for i, v := range dr {
		out.Pix[i] = d.lut[v]
	}
}

// newState returns a state buffer for the response chain: a retired one
// when available (the caller overwrites every pixel), else a fresh frame.
func (d *Display) newState() *frame.Frame {
	if n := len(d.freeState); n > 0 {
		f := d.freeState[n-1]
		d.freeState = d.freeState[:n-1]
		return f
	}
	return frame.New(d.w, d.h)
}

// extendState advances the response-state chain to cover every pushed frame
// (state[k-base] exists for k ≤ base+len(drive)), so the read paths never
// mutate. state[0] assumes the panel settled on frame 0 before t=0. Called
// at push time with the write lock held.
func (d *Display) extendState() {
	if len(d.state) == 0 {
		s0 := d.newState()
		d.luminanceInto(d.drive[0], s0)
		d.state = append(d.state, s0)
	}
	alpha := float32(math.Exp(-d.FrameDuration() / d.cfg.ResponseTime))
	for len(d.state) <= len(d.drive) {
		j := len(d.state) - 1 // completed interval, relative to base
		prev := d.state[j]
		target := d.drive[j]
		next := d.newState()
		for i := range next.Pix {
			tg := d.lut[target[i]]
			next.Pix[i] = tg + float32((prev.Pix[i]-tg)*alpha)
		}
		d.state = append(d.state, next)
	}
}

// RowAverage computes, for every pixel of row y, the mean linear luminance
// over the time window [t0, t1) and stores it into dst (length ≥ panel
// width). Windows extending before 0 or past the last frame see the first /
// last frame held steady. An empty window panics, and so does a window end
// that is NaN, infinite or beyond ±2⁵³ refresh intervals (about 2.4 million
// years at 120 Hz), whose interval loop could never finish, and any read
// after Close.
func (d *Display) RowAverage(y int, t0, t1 float64, dst []float32) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	d.checkOpen()
	if len(d.drive) == 0 {
		panic("display: no frames pushed")
	}
	if t1 <= t0 {
		panic(fmt.Sprintf("display: empty window [%v,%v)", t0, t1))
	}
	if y < 0 || y >= d.h {
		panic(fmt.Sprintf("display: row %d out of range", y))
	}
	T := d.FrameDuration()
	if !(math.Abs(t0/T) < maxInterval && math.Abs(t1/T) < maxInterval) {
		panic(fmt.Sprintf("display: window [%v,%v) is not a finite span of refresh intervals", t0, t1))
	}
	w := d.w
	k0 := int(math.Floor(t0 / T))
	k1 := int(math.Ceil(t1 / T))
	if k1 <= k0 {
		k1 = k0 + 1
	}
	total := t1 - t0
	if duty := d.cfg.StrobeDuty; duty > 0 && duty < 1 {
		// Strobed backlight: light only during the final duty fraction of
		// each interval, at target luminance scaled by 1/duty.
		clear(dst[:w])
		boost := float32(1 / duty)
		for k := k0; k < k1; k++ {
			sOn := (float64(k) + 1 - duty) * T
			sOff := float64(k+1) * T
			a := math.Max(t0, sOn)
			b := math.Min(t1, sOff)
			if b <= a {
				continue
			}
			target := d.driveFrame(k)[y*w : y*w+w]
			wgt := float32((b-a)/total) * boost
			for x := 0; x < w; x++ {
				dst[x] += float32(d.lut[target[x]] * wgt)
			}
		}
		return
	}
	// The response-state chain is maintained at push time, so the read path
	// needs no mutation: state[k-base] exists for every pushed k ≥ base.
	useResp := d.cfg.ResponseTime > 0
	tauR := d.cfg.ResponseTime
	n := d.base + len(d.drive)
	// filled says dst holds the sum so far. With ideal pixels every
	// interval is settled and the first one stores its share: that equals
	// adding it to a zeroed row, since 0 + p = p for the LUT's finite,
	// non-negative products, so no clear pass is needed. The response
	// model accumulates from zero.
	filled := useResp
	if useResp {
		clear(dst[:w])
	}
	for k := k0; k < k1; k++ {
		a := math.Max(t0, float64(k)*T)
		b := math.Min(t1, float64(k+1)*T)
		if b <= a {
			continue
		}
		target := d.driveFrame(k)[y*w : y*w+w]
		if !useResp || k < 0 || k >= n {
			// Settled (held) frame or ideal pixels: constant luminance.
			wgt := float32((b - a) / total)
			if !filled {
				for x := 0; x < w; x++ {
					dst[x] = d.lut[target[x]] * wgt
				}
				filled = true
				continue
			}
			for x := 0; x < w; x++ {
				dst[x] += float32(d.lut[target[x]] * wgt)
			}
			continue
		}
		// Exponential approach from the interval-start state:
		// ∫ target + (s−target)·e^{−(t−tk)/τ} dt over [a,b].
		tk := float64(float64(k) * T)
		ea := math.Exp(-(a - tk) / tauR)
		eb := math.Exp(-(b - tk) / tauR)
		cLin := float32((b - a) / total)
		cExp := float32(tauR * (ea - eb) / total)
		st := d.state[k-d.base].Pix[y*w : y*w+w]
		for x := 0; x < w; x++ {
			tg := d.lut[target[x]]
			dst[x] += float32(tg*cLin) + float32((st[x]-tg)*cExp)
		}
	}
	if !filled {
		// No interval overlapped the window (rounding at its ends).
		clear(dst[:w])
	}
}

// WindowAverage returns a full frame of mean linear luminance over [t0, t1).
func (d *Display) WindowAverage(t0, t1 float64) *frame.Frame {
	w, h := d.Size()
	out := frame.New(w, h)
	d.WindowAverageInto(t0, t1, out)
	return out
}

// WindowAverageInto computes the mean linear luminance over [t0, t1) into
// dst (which must match the panel size), writing each panel row in place —
// the allocation-free form of WindowAverage for pooled buffers.
func (d *Display) WindowAverageInto(t0, t1 float64, dst *frame.Frame) {
	w, h := d.Size()
	if dst.W != w || dst.H != h {
		panic(fmt.Sprintf("display: WindowAverageInto %dx%d does not match panel %dx%d", dst.W, dst.H, w, h))
	}
	for y := 0; y < h; y++ {
		d.RowAverage(y, t0, t1, dst.Row(y))
	}
}

// PixelWaveform samples the luminance of pixel (x, y) at n uniform points in
// [t0, t1), using a sample window of dt seconds each; used by the HVS model
// and waveform verification.
func (d *Display) PixelWaveform(x, y int, t0, t1 float64, n int) []float64 {
	if n <= 0 {
		panic("display: non-positive sample count")
	}
	out := make([]float64, n)
	w, _ := d.Size()
	d.PixelWaveformInto(x, y, t0, t1, out, make([]float32, w))
	return out
}

// PixelWaveformInto is PixelWaveform writing into caller-owned buffers: out
// receives one sample per element (its length sets the sample count) and
// row is integration scratch of at least the panel width. The HVS fusion
// path shares one row buffer across every sampled point rather than
// allocating per waveform.
func (d *Display) PixelWaveformInto(x, y int, t0, t1 float64, out []float64, row []float32) {
	n := len(out)
	if n <= 0 {
		panic("display: non-positive sample count")
	}
	dt := (t1 - t0) / float64(n)
	for i := 0; i < n; i++ {
		a := t0 + float64(float64(i)*dt)
		d.RowAverage(y, a, a+dt, row)
		out[i] = float64(row[x])
	}
}

// EncodeLuminance converts a linear-light value (0..255 scale) back to the
// 8-bit drive value that would produce it, inverting gamma and brightness.
// It is the reference inverse transform used by the camera's encoder.
func (d *Display) EncodeLuminance(l float64) float64 {
	if l <= 0 {
		return 0
	}
	v := 255 * math.Pow(l/(255*d.cfg.Brightness), 1/d.cfg.Gamma)
	if v > 255 {
		v = 255
	}
	return v
}
