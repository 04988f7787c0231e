package core

import (
	"fmt"

	"inframe/internal/display"
	"inframe/internal/frame"
	"inframe/internal/parallel"
	"inframe/internal/video"
	"inframe/internal/waveform"
)

// Params are the tunable InFrame transmitter parameters from §3.2–3.3.
type Params struct {
	// Layout fixes the data frame geometry.
	Layout Layout
	// Delta is the chessboard amplitude δ in 8-bit drive units.
	Delta float64
	// Tau is the smoothing cycle τ: display frames per data frame. Even,
	// at least 2. The first τ/2 frames of a period are steady; the last
	// τ/2 carry the envelope transition to the next data frame.
	Tau int
	// Shape selects the transition envelope (paper: half square-root
	// raised cosine).
	Shape waveform.Shape
	// VideoFrameRatio is how many display frames repeat each video frame
	// (paper: 120 Hz display / 30 FPS video = 4).
	VideoFrameRatio int
	// Workers bounds the render worker pool: per-Block-row chessboard
	// application and headroom computation fan out across this many
	// goroutines. 0 means GOMAXPROCS; 1 forces the sequential path. Output
	// is bit-identical at any worker count (see internal/parallel).
	Workers int
	// Pool supplies the multiplexer's frame buffers: the persistent video
	// buffer and cached delta plane, and every float frame Frame returns,
	// which Recycle Puts back so a Frame+Recycle loop reuses the same
	// buffers forever. PushTo and the channel simulator render straight
	// into the display's 8-bit drive slots (PushFrame) and take no output
	// frame at all. Nil means a private pool: callers that keep every
	// rendered frame (Render) simply never recycle. Share one pool across
	// mux, camera and receiver to share buffers end to end.
	Pool *frame.Pool
}

// DefaultParams returns the paper's recommended operating point
// (δ=20, τ=12, SRRC smoothing) for the given layout.
func DefaultParams(l Layout) Params {
	return Params{Layout: l, Delta: 20, Tau: 12, Shape: waveform.SqrtRaisedCosine, VideoFrameRatio: 4}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if err := p.Layout.Validate(); err != nil {
		return err
	}
	if p.Delta <= 0 || p.Delta > 127 {
		return fmt.Errorf("core: Delta must be in (0,127], got %v", p.Delta)
	}
	if p.Tau < 2 || p.Tau%2 != 0 {
		return fmt.Errorf("core: Tau must be even and >= 2, got %d", p.Tau)
	}
	if p.VideoFrameRatio < 1 {
		return fmt.Errorf("core: VideoFrameRatio must be >= 1, got %d", p.VideoFrameRatio)
	}
	if p.Workers < 0 {
		return fmt.Errorf("core: Workers must be non-negative, got %d", p.Workers)
	}
	return nil
}

// Multiplexer combines a video source and a data stream into the displayed
// frame sequence (Fig. 2): each video frame is duplicated VideoFrameRatio
// times, and every displayed frame carries ±D with the complementary sign
// alternating per display frame.
//
// Rendering is pair-aware and incremental (DESIGN.md §5j): the unsigned
// chessboard delta D of the current smoothing state is cached in one pooled
// frame and each displayed frame is produced by a single fused pass
// out = clamp(V + sign·D), so the two frames of a complementary pair share
// one delta render, and a Block whose clipped amplitude is unchanged since
// the previous frame is never rewritten.
type Multiplexer struct {
	p     Params
	video video.Source
	data  Stream
	pool  *frame.Pool

	// cached per-video-frame state
	videoIdx int
	vframe   *frame.Frame
	// vbuf is the persistent video buffer when the source supports
	// in-place rendering (video.IntoSource); nil means the source
	// allocates each video frame itself.
	vbuf     *frame.Frame
	headroom []float32 // per-block clipping-limited amplitude bound

	// delta is the cached unsigned chessboard plane: the clipped smoothed
	// amplitude at every chessboard-on pixel, zero elsewhere. Off-chess
	// pixels are never written after the pooled (zeroed) Get, so a Block
	// rewrite only touches its on-pixels. deltaAmp remembers the amplitude
	// each Block's pixels currently hold; -1 means "never rendered", which
	// no clipped amplitude (>= 0) can equal, forcing the first write.
	delta    *frame.Frame
	deltaAmp []float32

	// rowBlocks / rowSkips are per-Block-row scratch counters for the render
	// fan-out: workers write disjoint rows, and the sequential sum into
	// stats afterwards keeps the totals deterministic at any worker count.
	rowBlocks []int64
	rowSkips  []int64
	stats     RenderStats
}

// RenderStats counts the incremental renderer's work avoidance since the
// multiplexer was built. Totals are deterministic for a given frame
// sequence regardless of Workers.
type RenderStats struct {
	// Blocks is the number of per-frame Block envelope evaluations;
	// BlocksSkipped counts those whose cached delta pixels were already at
	// the wanted amplitude, so no pixels were rewritten.
	Blocks, BlocksSkipped int64
	// HeadroomBlocks counts Block headroom scans performed;
	// HeadroomSkipped counts scans avoided because the video source's
	// DirtyRegion hint proved the Block's pixels unchanged.
	HeadroomBlocks, HeadroomSkipped int64
	// VideoRefreshes counts video-frame loads; VideoSkipped counts loads
	// avoided entirely (the source certified the frame identical to the
	// cached one).
	VideoRefreshes, VideoSkipped int64
}

// RenderStats returns a snapshot of the incremental-render counters.
func (m *Multiplexer) RenderStats() RenderStats { return m.stats }

// SkipRate returns the fraction of Block renders avoided by the delta
// cache, or 0 before any frame has been rendered.
func (s RenderStats) SkipRate() float64 {
	if s.Blocks == 0 {
		return 0
	}
	return float64(s.BlocksSkipped) / float64(s.Blocks)
}

// NewMultiplexer builds a multiplexer. The video source must match the
// layout's panel size.
func NewMultiplexer(p Params, src video.Source, data Stream) (*Multiplexer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	w, h := src.Size()
	if w != p.Layout.FrameW || h != p.Layout.FrameH {
		return nil, fmt.Errorf("core: video %dx%d does not match layout panel %dx%d",
			w, h, p.Layout.FrameW, p.Layout.FrameH)
	}
	pool := p.Pool
	if pool == nil {
		pool = frame.NewPool()
	}
	return &Multiplexer{p: p, video: src, data: data, pool: pool, videoIdx: -1}, nil
}

// Params returns the transmitter parameters.
func (m *Multiplexer) Params() Params { return m.p }

// DataFrameIndex returns which data frame display frame k belongs to.
func (m *Multiplexer) DataFrameIndex(k int) int { return k / m.p.Tau }

// envelopeAmplitude computes §3.2's smoothed pre-clipping amplitude of
// Block (bx, by) at display frame k: steady during the first τ/2 frames of
// the data period, transitioning toward the next data frame's level
// afterwards. Shared by the grayscale and color multiplexers.
func envelopeAmplitude(p Params, data Stream, bx, by, k int) float64 {
	d := k / p.Tau
	return envelopeBetween(p, data.DataFrame(d), data.DataFrame(d+1), bx, by, k)
}

// envelopeBetween is envelopeAmplitude over pre-resolved current/next data
// frames. Resolving the frames once per rendered frame (instead of once per
// Block) keeps Stream implementations with per-call work (whitening, cache
// fills) off the per-Block path, and makes the Block fan-out safe: workers
// read the two frames but never touch the Stream.
func envelopeBetween(p Params, cur, next *DataFrame, bx, by, k int) float64 {
	tau := p.Tau
	j := k % tau
	c := cur.Bit(bx, by)
	a0 := 0.0
	if c {
		a0 = p.Delta
	}
	half := tau / 2
	if j < half {
		return a0
	}
	n := next.Bit(bx, by)
	if n == c {
		return a0
	}
	a1 := 0.0
	if n {
		a1 = p.Delta
	}
	u := float64(j-half+1) / float64(half)
	return p.Shape.Between(a0, a1, u)
}

// refreshVideo loads the video frame for display frame k and recomputes the
// per-block clipping headroom: the largest amplitude a such that v±a stays
// within [0,255] for every chessboard-on pixel of the block (§3.3's local
// amplitude adjustment for bright and dark areas).
//
// When the source is a video.RegionSource and certifies every video-frame
// transition since the cached frame, the refresh narrows to the accumulated
// dirty region: an empty union skips the load and all headroom scans, a
// partial union reloads the frame but rescans only intersecting Blocks.
func (m *Multiplexer) refreshVideo(k int) {
	vi := k / m.p.VideoFrameRatio
	if vi == m.videoIdx {
		return
	}
	prev := m.videoIdx
	m.videoIdx = vi
	l := m.p.Layout
	// Accumulate the dirty hint across every skipped-over video frame: the
	// multiplexer may jump several video indices between renders (Frame is
	// random-access), and soundness requires covering each transition. Any
	// uncertified step — including backwards jumps — degrades to a full
	// refresh.
	var dirty video.Region
	dirtyOK := false
	if rs, ok := m.video.(video.RegionSource); ok && m.vframe != nil && m.headroom != nil && vi > prev {
		dirtyOK = true
		for j := prev + 1; j <= vi; j++ {
			r, ok := rs.DirtyRegion(j)
			if !ok {
				dirtyOK = false
				break
			}
			dirty = dirty.Union(r)
		}
	}
	if dirtyOK && dirty.Empty() {
		// Frame vi is pixel-identical to the cached frame: keep the video
		// buffer, the headroom table and the delta cache untouched.
		m.stats.VideoSkipped++
		m.stats.HeadroomSkipped += int64(l.NumBlocks())
		return
	}
	m.stats.VideoRefreshes++
	if src, ok := m.video.(video.IntoSource); ok {
		// In-place-capable source: render into one persistent pooled
		// buffer instead of allocating a frame per video frame.
		if m.vbuf == nil {
			m.vbuf = m.pool.Get(m.p.Layout.FrameW, m.p.Layout.FrameH)
		}
		src.FrameInto(vi, m.vbuf)
		m.vframe = m.vbuf
	} else {
		m.vframe = m.video.Frame(vi)
	}
	if m.headroom == nil {
		m.headroom = make([]float32, l.NumBlocks())
	}
	ps := l.PixelSize
	m.ensureScratch()
	// Each Block row writes a disjoint headroom span, so the fan-out is an
	// ordered merge: bit-identical at any worker count.
	parallel.For(m.p.Workers, l.BlocksY, func(by int) {
		var scanned, skipped int64
		for bx := 0; bx < l.BlocksX; bx++ {
			x0, y0, w, h := l.BlockRect(bx, by)
			if dirtyOK && !dirty.Intersects(x0, y0, w, h) {
				// Every certified transition left this Block's pixels
				// unchanged, so its headroom (computed from exactly those
				// pixels) is still valid.
				skipped++
				continue
			}
			scanned++
			head := float32(255)
			for y := y0; y < y0+h; y++ {
				pj := y / ps
				rowBase := y * l.FrameW
				for x := x0; x < x0+w; x++ {
					if !ChessOn(x/ps, pj) {
						continue
					}
					v := m.vframe.Pix[rowBase+x]
					if hi := 255 - v; hi < head {
						head = hi
					}
					if v < head {
						head = v
					}
				}
			}
			if head < 0 {
				head = 0
			}
			m.headroom[by*l.BlocksX+bx] = head
		}
		m.rowBlocks[by] = scanned
		m.rowSkips[by] = skipped
	})
	for by := 0; by < l.BlocksY; by++ {
		m.stats.HeadroomBlocks += m.rowBlocks[by]
		m.stats.HeadroomSkipped += m.rowSkips[by]
	}
}

// ensureScratch sizes the per-Block-row counter scratch and the delta-cache
// state on first use.
func (m *Multiplexer) ensureScratch() {
	l := m.p.Layout
	if m.rowBlocks == nil {
		m.rowBlocks = make([]int64, l.BlocksY)
		m.rowSkips = make([]int64, l.BlocksY)
	}
	if m.delta == nil {
		// The pooled frame arrives zeroed; off-chess pixels are never
		// written afterwards, so they carry zero delta forever.
		m.delta = m.pool.Get(l.FrameW, l.FrameH)
		m.deltaAmp = make([]float32, l.NumBlocks())
		for i := range m.deltaAmp {
			m.deltaAmp[i] = -1
		}
	}
}

// renderDelta refreshes a cached unsigned delta plane for display frame k:
// each Block's clipped envelope amplitude is compared against the amplitude
// its pixels already hold (deltaAmp), and only stale Blocks are rewritten.
// Block rows cover disjoint pixel bands, disjoint deltaAmp spans and
// disjoint counter slots, so the fan-out is an ordered merge — bit-identical
// at any worker count. rowBlocks[by] / rowSkips[by] receive each row's
// evaluated and skipped Block counts for the caller to fold into its stats.
// Shared by the grayscale and color multiplexers: headroom is whatever
// channel-aware bound the caller computed.
func renderDelta(p Params, cur, next *DataFrame, k int, headroom, deltaAmp []float32, delta *frame.Frame, rowBlocks, rowSkips []int64) {
	l := p.Layout
	ps := l.PixelSize
	parallel.For(p.Workers, l.BlocksY, func(by int) {
		var total, skipped int64
		for bx := 0; bx < l.BlocksX; bx++ {
			total++
			a := envelopeBetween(p, cur, next, bx, by, k)
			if head := float64(headroom[by*l.BlocksX+bx]); a > head {
				a = head
			}
			if a < 0 {
				a = 0
			}
			want := float32(a)
			b := by*l.BlocksX + bx
			//lint:ignore floateq cache key: both sides are the same clipped envelope computation, equal means the stored pixels are exactly right
			if want == deltaAmp[b] {
				skipped++
				continue
			}
			deltaAmp[b] = want
			x0, y0, w, h := l.BlockRect(bx, by)
			for y := y0; y < y0+h; y++ {
				pj := y / ps
				rowBase := y * l.FrameW
				for x := x0; x < x0+w; x++ {
					if ChessOn(x/ps, pj) {
						delta.Pix[rowBase+x] = want
					}
				}
			}
		}
		rowBlocks[by] = total
		rowSkips[by] = skipped
	})
}

// Frame renders display frame k: the current video frame plus the signed,
// clipped, smoothed chessboard of every Block. The returned frame is drawn
// from the multiplexer's pool; the caller owns it until it hands it back
// via Recycle (or keeps it forever — Render's contract).
//
// The render is incremental: pass one refreshes the cached unsigned delta
// plane, rewriting only Blocks whose clipped amplitude changed since the
// previous render (during the steady half of a smoothing cycle on a static
// video that is zero Blocks); pass two fuses clone, signed add and clamp
// into one sweep out = clamp(V + sign·D). The complementary pair's two
// frames differ only in sign, so they share one delta refresh. The output
// is bit-identical to the direct clone+add+clamp formulation — see
// DESIGN.md §5j for the argument and TestFixedPointBitIdentity for the
// adversarial check.
func (m *Multiplexer) Frame(k int) *frame.Frame {
	sign := m.prepare(k)
	// Fused output pass: clone, signed add and clamp in one sweep. Pixel
	// rows are disjoint, so the fan-out is again an ordered merge.
	l := m.p.Layout
	out := m.pool.Get(l.FrameW, l.FrameH)
	vp, dp, op := m.vframe.Pix, m.delta.Pix, out.Pix
	w := l.FrameW
	parallel.For(m.p.Workers, l.FrameH, func(y int) {
		base := y * w
		for i := base; i < base+w; i++ {
			v := vp[i] + sign*dp[i]
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			op[i] = v
		}
	})
	return out
}

// PushFrame renders display frame k straight into d's next drive slot:
// the fused pass writes frame.Quant8(V + sign·D) as 8-bit drive codes, so
// no float frame is materialized and no separate quantize sweep runs. The
// codes are bit-identical to d.Push(m.Frame(k)) — same delta refresh, same
// float32 sum, same quantizer; Frame's clamp is subsumed because Quant8
// saturates to [0,255] and maps NaN to 0 (DESIGN.md §5l).
func (m *Multiplexer) PushFrame(d *display.Display, k int) error {
	sign := m.prepare(k)
	l := m.p.Layout
	vp, dp := m.vframe.Pix, m.delta.Pix
	w := l.FrameW
	return d.PushDrive(l.FrameW, l.FrameH, func(dst []uint8) {
		parallel.For(m.p.Workers, l.FrameH, func(y int) {
			base := y * w
			for i := base; i < base+w; i++ {
				dst[i] = frame.Quant8(vp[i] + sign*dp[i])
			}
		})
	})
}

// prepare is the shared first half of Frame and PushFrame: it refreshes the
// video frame, headroom table and cached delta plane for display frame k,
// folds the work counters into the stats, and returns k's complementary
// sign (+1 on even frames, −1 on odd).
func (m *Multiplexer) prepare(k int) float32 {
	if k < 0 {
		panic("core: negative display frame index")
	}
	m.refreshVideo(k)
	l := m.p.Layout
	m.ensureScratch()
	// Resolve the two data frames once: workers must not touch the Stream
	// (implementations may cache or whiten per call).
	cur := m.data.DataFrame(k / m.p.Tau)
	next := m.data.DataFrame(k/m.p.Tau + 1)
	// Delta refresh. A Block row covers a disjoint band of delta pixel rows
	// and a disjoint span of deltaAmp, so rows fan out with no overlap and
	// the result is bit-identical at any worker count.
	renderDelta(m.p, cur, next, k, m.headroom, m.deltaAmp, m.delta, m.rowBlocks, m.rowSkips)
	for by := 0; by < l.BlocksY; by++ {
		m.stats.Blocks += m.rowBlocks[by]
		m.stats.BlocksSkipped += m.rowSkips[by]
	}
	if k%2 == 1 {
		return -1
	}
	return 1
}

// Recycle returns a frame obtained from Frame to the multiplexer's pool
// for reuse by a later render. Call it once the frame's contents have been
// consumed (e.g. pushed onto a display, which copies them into its drive
// history); the frame must not be used afterwards.
func (m *Multiplexer) Recycle(f *frame.Frame) { m.pool.Put(f) }

// Render produces display frames [0, n) in order. The caller owns every
// returned frame (they are never recycled), so Render allocates n float
// buffers; PushTo and the channel simulator render straight into the
// display's 8-bit drive slots instead.
func (m *Multiplexer) Render(n int) []*frame.Frame {
	frames := make([]*frame.Frame, n)
	for k := 0; k < n; k++ {
		frames[k] = m.Frame(k)
	}
	return frames
}

// PushTo renders n display frames straight into a display simulator's
// drive slots with PushFrame: no float render frame exists on this path.
func (m *Multiplexer) PushTo(d *display.Display, n int) error {
	for k := 0; k < n; k++ {
		if err := m.PushFrame(d, k); err != nil {
			//lint:ignore hotalloc error path runs at most once, then the loop exits
			return fmt.Errorf("core: pushing frame %d: %w", k, err)
		}
	}
	return nil
}
