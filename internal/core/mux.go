package core

import (
	"fmt"
	"math"

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
	// Pool supplies the grayscale multiplexer's frame buffers: the
	// persistent video buffer, and every float frame Frame returns, which
	// Recycle Puts back so a Frame+Recycle loop reuses the same buffers
	// forever. PushTo and the channel simulator copy the multiplexer's 8-bit
	// drive planes straight into the display's drive slots (PushFrame) and
	// take no output frame at all. The color multiplexer takes nothing from
	// it: its source and its output frames are plain color allocations. Nil
	// means a private pool: callers that keep every rendered frame (Render)
	// simply never recycle. Share one pool across mux, camera and receiver
	// to share buffers end to end.
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
	if !(p.Delta > 0 && p.Delta <= 127) {
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

// modulator is the amplitude engine the grayscale and color multiplexers
// embed (DESIGN.md §5j). It holds each Block's clipping headroom and the
// clipped amplitude its chessboard-on pixels carry, spreads those
// amplitudes over the chess rows, and renders clamp(V + sign·D) one video
// plane at a time: once for gray, once per channel for color.
type modulator struct {
	p    Params
	data Stream

	// videoIdx is the video frame headroom was scanned from (-1 before the
	// first); headroom is each Block's clipping-limited amplitude bound.
	// flat is what the grayscale drive planes know of each Block's pixels
	// in the current video frame: a headroom scan resets it for exactly the
	// Blocks it rescans, and a drive-plane rewrite judges it
	// (Multiplexer.judgeFlat).
	videoIdx int
	headroom []float32
	flat     []blockFlat

	// deltaAmp remembers the clipped amplitude each Block's chessboard-on
	// pixels carry; -1 means "never rendered", which no clipped amplitude
	// (>= 0) can equal, forcing the first write. The amplitude step marks
	// every Block whose amplitude changed in staleBlock and sets
	// blocksStale; only the grayscale drive planes read and clear the marks.
	deltaAmp    []float32
	staleBlock  []bool
	blocksStale bool

	// chess holds the unsigned chessboard delta D one panel row at a time:
	// row 2·by+q is D of every pixel row of Block row by whose Pixel row
	// has parity q, and the last row is the margins' zero.
	chess []float32

	// rowSkips is per-Block-row scratch for the fan-outs: workers write
	// disjoint rows, and the sequential sum into stats afterwards keeps the
	// totals deterministic at any worker count.
	rowSkips []int64
	stats    RenderStats
}

// newModulator validates p and the source's size and sizes the engine's
// tables for the layout.
func newModulator(p Params, src interface{ Size() (int, int) }, data Stream) (modulator, error) {
	if err := p.Validate(); err != nil {
		return modulator{}, err
	}
	l := p.Layout
	if w, h := src.Size(); w != l.FrameW || h != l.FrameH {
		return modulator{}, fmt.Errorf("core: video %dx%d does not match layout panel %dx%d",
			w, h, l.FrameW, l.FrameH)
	}
	amps := make([]float32, l.NumBlocks())
	for i := range amps {
		amps[i] = -1
	}
	return modulator{
		p: p, data: data, videoIdx: -1,
		headroom:   make([]float32, l.NumBlocks()),
		flat:       make([]blockFlat, l.NumBlocks()),
		deltaAmp:   amps,
		staleBlock: make([]bool, l.NumBlocks()),
		chess:      make([]float32, (2*l.BlocksY+1)*l.FrameW),
		rowSkips:   make([]int64, l.BlocksY),
	}, nil
}

// RenderStats counts the incremental renderer's work avoidance since the
// multiplexer was built. Totals are deterministic for a given frame
// sequence regardless of Workers.
type RenderStats struct {
	// Blocks is the number of per-frame Block envelope evaluations;
	// BlocksSkipped counts those whose pixels already carried the wanted
	// amplitude (deltaAmp), so no pixels were rewritten.
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
func (m *modulator) RenderStats() RenderStats { return m.stats }

// SkipRate returns the fraction of Block renders avoided by the amplitude
// cache, or 0 before any frame has been rendered.
func (s RenderStats) SkipRate() float64 {
	if s.Blocks == 0 {
		return 0
	}
	return float64(s.BlocksSkipped) / float64(s.Blocks)
}

// Params returns the transmitter parameters.
func (m *modulator) Params() Params { return m.p }

// dirtyRegioner is the one method of video.RegionSource the engine reads:
// a grayscale source's dirty-region hint, or a color source's
// (video.Colorize forwards its grayscale source's).
type dirtyRegioner interface {
	DirtyRegion(i int) (video.Region, bool)
}

// nextVideo moves the engine to vi, the video frame display frame k shows,
// and reports whether the caller must reload it and rescan its headroom.
// reload is false when vi is the frame the headroom table already holds,
// or when src certifies every transition since that frame as empty, so
// frame vi is pixel-identical to it (a counted skip of the load and of
// every headroom scan). Otherwise the reload is counted, and with dirtyOK
// every changed pixel lies in dirty, the union of src's hints over each
// skipped-over transition: Frame is random-access, so the engine may jump
// several video frames between renders, and soundness needs every one of
// them covered. The first frame, a backwards jump, a source without
// hints and any hint with ok false leave dirtyOK false: reload and rescan
// everything.
func (m *modulator) nextVideo(k int, src any) (vi int, dirty video.Region, dirtyOK, reload bool) {
	if k < 0 {
		panic("core: negative display frame index")
	}
	vi, prev := k/m.p.VideoFrameRatio, m.videoIdx
	if vi == prev {
		return vi, dirty, false, false
	}
	m.videoIdx = vi
	if rs, ok := src.(dirtyRegioner); ok && prev >= 0 && vi > prev {
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
		m.stats.VideoSkipped++
		m.stats.HeadroomSkipped += int64(m.p.Layout.NumBlocks())
		return vi, dirty, true, false
	}
	m.stats.VideoRefreshes++
	return vi, dirty, dirtyOK, true
}

// scanHeadroom recomputes the per-Block clipping headroom from the planes
// of a freshly loaded video frame: the largest amplitude a such that v±a
// stays within [0,255] at every chessboard-on pixel of the Block in every
// plane (§3.3's local amplitude adjustment for bright and dark areas; for
// color, a saturated red sky limits the amplitude just like a saturated
// gray one). With dirtyOK, a Block the dirty region misses keeps its
// headroom, and its flatness: every certified transition left its pixels
// unchanged. A rescanned Block's flatness is left unjudged until a drive
// plane rewrite needs it (Multiplexer.judgeFlat).
func (m *modulator) scanHeadroom(dirty video.Region, dirtyOK bool, planes ...[]float32) {
	l := m.p.Layout
	w, ps := l.FrameW, l.PixelSize
	// Each Block row writes disjoint headroom and flatness spans, so the
	// fan-out is an ordered merge: bit-identical at any worker count.
	parallel.For(m.p.Workers, l.BlocksY, func(by int) {
		var skipped int64
		for bx := 0; bx < l.BlocksX; bx++ {
			x0, y0, bw, bh := l.BlockRect(bx, by)
			if dirtyOK && !dirty.Intersects(x0, y0, bw, bh) {
				skipped++
				continue
			}
			head := float32(255)
			for y := y0; y < y0+bh; y++ {
				for _, pl := range planes {
					head = onRunHeadroom(pl[y*w:(y+1)*w], x0, x0+bw, ps, y/ps, head)
				}
			}
			if head < 0 {
				head = 0
			}
			b := by*l.BlocksX + bx
			m.headroom[b], m.flat[b] = head, blockFlat{}
		}
		m.rowSkips[by] = skipped
	})
	for _, s := range m.rowSkips {
		m.stats.HeadroomBlocks += int64(l.BlocksX) - s
		m.stats.HeadroomSkipped += s
	}
}

// step is the amplitude step for display frame k, run once the headroom
// table holds k's video frame: each Block's envelope amplitude, clipped to
// its headroom, is compared against the amplitude its pixels already carry
// (deltaAmp), and only a changed Block is stored and marked stale. Block
// rows own disjoint spans and counter slots, so the fan-out is an ordered
// merge, bit-identical at any worker count. step returns k's complementary
// sign: +1 on even frames, −1 on odd.
func (m *modulator) step(k int) float32 {
	l := m.p.Layout
	// Resolve the two data frames once: workers must not touch the Stream
	// (implementations may cache or whiten per call). A Block's envelope
	// depends on it only through its two bits, so evaluate it once per
	// (cur, next) pair: env[2·cur+next].
	cur := m.data.DataFrame(k / m.p.Tau)
	next := m.data.DataFrame(k/m.p.Tau + 1)
	var env [4]float64
	for i := range env {
		env[i] = envelope(m.p, i>>1 == 1, i&1 == 1, k)
	}
	parallel.For(m.p.Workers, l.BlocksY, func(by int) {
		var skipped int64
		i0 := by * l.BlocksX
		amps := m.deltaAmp[i0 : i0+l.BlocksX]
		curBits, nextBits := cur.Bits[i0:i0+l.BlocksX], next.Bits[i0:i0+l.BlocksX]
		for bx, head := range m.headroom[i0 : i0+l.BlocksX] {
			a := env[2*bitInt(curBits[bx])+bitInt(nextBits[bx])]
			if h := float64(head); a > h {
				a = h
			}
			if a < 0 {
				a = 0
			}
			want := float32(a)
			//lint:ignore floateq cache key: both sides are the same clipped envelope computation, equal means the stored pixels are exactly right
			if want == amps[bx] {
				skipped++
				continue
			}
			amps[bx] = want
			m.staleBlock[i0+bx] = true
		}
		m.rowSkips[by] = skipped
	})
	for _, s := range m.rowSkips {
		m.stats.Blocks += int64(l.BlocksX)
		m.stats.BlocksSkipped += s
		if s < int64(l.BlocksX) {
			m.blocksStale = true
		}
	}
	if k%2 == 1 {
		return -1
	}
	return 1
}

// bitInt is 1 for a set bit and 0 for a clear one.
func bitInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// envelope computes §3.2's smoothed pre-clipping amplitude at display
// frame k of a Block whose bit is c in k's data frame and n in the next:
// steady during the first τ/2 frames of the data period, transitioning
// toward the next data frame's level afterwards.
func envelope(p Params, c, n bool, k int) float64 {
	tau := p.Tau
	j := k % tau
	a0 := 0.0
	if c {
		a0 = p.Delta
	}
	half := tau / 2
	if j < half {
		return a0
	}
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

// firstOnRun returns where the chessboard-on runs of Pixel row pj begin in
// the screen columns from x0 on: the Pixel column pi of the first on Pixel
// that covers x0 or lies right of it, and the column s where its run
// starts. Pixel columns are global (x / ps), so a Pixel straddling x0
// contributes only its part from x0. On-runs then repeat every second
// Pixel: loop with pi, s = pi+2, (pi+2)·ps, each run ending at
// min((pi+1)·ps, span end).
func firstOnRun(x0, ps, pj int) (pi, s int) {
	pi = x0 / ps
	if !ChessOn(pi, pj) {
		pi++
	}
	return pi, max(x0, pi*ps)
}

// onRunHeadroom lowers head to the distance from 0 and from 255 of every
// chessboard-on pixel x in [x0, x1) of a panel row in Pixel row pj, visiting
// them left to right.
func onRunHeadroom(row []float32, x0, x1, ps, pj int, head float32) float32 {
	for pi, s := firstOnRun(x0, ps, pj); s < x1; pi, s = pi+2, (pi+2)*ps {
		for _, v := range row[s:min((pi+1)*ps, x1)] {
			if hi := 255 - v; hi < head {
				head = hi
			}
			if v < head {
				head = v
			}
		}
	}
	return head
}

// fillOnRuns sets row[x] = a at every chessboard-on pixel x in [x0, x1) of
// a panel row in Pixel row pj.
func fillOnRuns(row []float32, x0, x1, ps, pj int, a float32) {
	for pi, s := firstOnRun(x0, ps, pj); s < x1; pi, s = pi+2, (pi+2)*ps {
		run := row[s:min((pi+1)*ps, x1)]
		for x := range run {
			run[x] = a
		}
	}
}

// fillChess brings the chess rows up to date with deltaAmp: row 2·by+q
// holds Block (bx, by)'s amplitude at every chessboard-on pixel of the
// Block row for Pixel rows of parity q. Which pixels are on never changes,
// so the zeros of the allocation stay put everywhere else — margins and
// the last (all-margin) row included. Block rows own disjoint rows.
func (m *modulator) fillChess() {
	l := m.p.Layout
	w, ps := l.FrameW, l.PixelSize
	parallel.For(m.p.Workers, l.BlocksY, func(by int) {
		amps := m.deltaAmp[by*l.BlocksX : (by+1)*l.BlocksX]
		for q := 0; q < 2; q++ {
			row := m.chess[(2*by+q)*w : (2*by+q+1)*w]
			for bx, a := range amps {
				x0, _, bw, _ := l.BlockRect(bx, by)
				fillOnRuns(row, x0, x0+bw, ps, q, a)
			}
		}
	})
}

// chessRow returns the chess row holding D for panel row y (fillChess must
// have run since deltaAmp last changed).
func (m *modulator) chessRow(y int) []float32 {
	l := m.p.Layout
	w := l.FrameW
	r := 2 * l.BlocksY
	if dy := y - l.MarginY(); dy >= 0 && dy < l.BlocksY*l.BlockPx() {
		r = 2*(dy/l.BlockPx()) + (y/l.PixelSize)%2
	}
	return m.chess[r*w : (r+1)*w]
}

// render writes clamp(v + sign·D) for every pixel v of the video plane src
// into dst, D read from the chess rows (fillChess must have run since the
// amplitude step): the clone, signed add and clamp in one sweep. The output
// is bit-identical to the direct clone+add+clamp formulation — see DESIGN.md
// §5j for the argument and TestFusedRenderMatchesReference for the
// adversarial check. Pixel rows are disjoint, so the fan-out is an ordered
// merge.
func (m *modulator) render(dst, src []float32, sign float32) {
	w := m.p.Layout.FrameW
	parallel.For(m.p.Workers, m.p.Layout.FrameH, func(y int) {
		vr := src[y*w : (y+1)*w]
		dr, op := m.chessRow(y)[:len(vr)], dst[y*w : (y+1)*w][:len(vr)]
		for x, v := range vr {
			v += float32(sign * dr[x])
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			op[x] = v
		}
	})
}

// Multiplexer combines a video source and a data stream into the displayed
// frame sequence (Fig. 2): each video frame is duplicated VideoFrameRatio
// times, and every displayed frame carries ±D with the complementary sign
// alternating per display frame.
//
// Rendering is incremental (DESIGN.md §5j). The embedded amplitude engine
// caches the clipped amplitude every Block carries, and a Block whose
// amplitude is unchanged since the previous frame costs no pixel work. The
// drive path keeps each complementary sign as a persistent 8-bit plane,
// Quant8(V + D) and Quant8(V − D): PushFrame re-rounds only the pixels
// whose video or amplitude changed since its previous push, then copies the
// plane of the frame's sign into the display. Frame renders float output
// from the chess rows and never touches the planes.
type Multiplexer struct {
	modulator
	video video.Source
	pool  *frame.Pool

	// vframe is the cached video frame; vbuf is its persistent buffer when
	// the source supports in-place rendering (video.IntoSource), nil when
	// the source allocates each video frame itself.
	vframe, vbuf *frame.Frame

	// plus and minus are the drive planes of even and odd frames,
	// Quant8(V + D) and Quant8(V − D), exact except where marked stale:
	// every pixel (staleAll), the video pixels refreshed since the last push
	// (staleVideo), and the chessboard-on pixels of each Block whose
	// amplitude changed since (staleBlock; blocksStale says whether any
	// did). prepare marks and only PushFrame rewrites and clears, so any
	// order of Frame and PushFrame calls keeps the planes exact.
	plus, minus []uint8
	staleAll    bool
	staleVideo  video.Region
}

// NewMultiplexer builds a multiplexer. The video source must match the
// layout's panel size.
func NewMultiplexer(p Params, src video.Source, data Stream) (*Multiplexer, error) {
	mod, err := newModulator(p, src, data)
	if err != nil {
		return nil, err
	}
	pool := p.Pool
	if pool == nil {
		pool = frame.NewPool()
	}
	return &Multiplexer{modulator: mod, video: src, pool: pool}, nil
}

// DataFrameIndex returns which data frame display frame k belongs to.
func (m *Multiplexer) DataFrameIndex(k int) int { return k / m.p.Tau }

// refreshVideo loads the video frame for display frame k and rescans the
// headroom table.
//
// When the source is a video.RegionSource and certifies every video-frame
// transition since the cached frame, the refresh narrows to the accumulated
// dirty region (nextVideo): an empty union skips the load and all headroom
// scans, keeping the video buffer, the headroom table and the drive planes
// untouched; a partial union reloads the frame but rescans only
// intersecting Blocks. Either way the reloaded pixels — the union, or the
// whole panel — are marked stale in the drive planes.
func (m *Multiplexer) refreshVideo(k int) {
	vi, dirty, dirtyOK, reload := m.nextVideo(k, m.video)
	if !reload {
		return
	}
	if dirtyOK {
		m.staleVideo = m.staleVideo.Union(dirty)
	} else {
		m.staleAll = true
	}
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
	m.scanHeadroom(dirty, dirtyOK, m.vframe.Pix)
}

// Frame renders display frame k: the current video frame plus the signed,
// clipped, smoothed chessboard of every Block. The returned frame is drawn
// from the multiplexer's pool; the caller owns it until it hands it back
// via Recycle (or keeps it forever — Render's contract).
//
// The render is incremental: the amplitude step re-evaluates every Block
// but stores only the changed ones, the chess rows spread the amplitudes
// over one panel row per (Block row, Pixel-row parity), and one fused sweep
// writes out = clamp(V + sign·D). Frame leaves the drive planes and their
// stale marks to PushFrame.
func (m *Multiplexer) Frame(k int) *frame.Frame {
	sign := m.prepare(k)
	m.fillChess()
	out := m.pool.Get(m.p.Layout.FrameW, m.p.Layout.FrameH)
	m.render(out.Pix, m.vframe.Pix, sign)
	return out
}

// PushFrame renders display frame k into d's next drive slot: it brings the
// drive planes up to date (refreshPlanes) and copies the plane of k's sign,
// so on static video between amplitude changes a push rounds nothing. The
// codes are bit-identical to d.Push(m.Frame(k)) — same amplitudes, same
// float32 sum, same quantizer; Frame's clamp is subsumed because Quant8
// saturates to [0,255] and maps NaN to 0 (DESIGN.md §5j, §5l).
func (m *Multiplexer) PushFrame(d *display.Display, k int) error {
	m.prepare(k)
	m.refreshPlanes()
	plane := m.plus
	if k%2 == 1 {
		plane = m.minus
	}
	l := m.p.Layout
	return d.PushDrive(l.FrameW, l.FrameH, func(dst []uint8) { copy(dst, plane) })
}

// refreshPlanes rewrites what prepare marked stale since the last push and
// clears the marks: first every pixel of the stale video region, margins
// included, then each Block whose amplitude changed, unless the whole panel
// was just rewritten. A pixel's codes are a function of its V and D alone,
// so a pixel rewritten twice or in either pass gets the same codes, and the
// fan-outs over disjoint rows are bit-identical at any worker count.
func (m *Multiplexer) refreshPlanes() {
	l := m.p.Layout
	w, h := l.FrameW, l.FrameH
	if m.plus == nil {
		planes := make([]uint8, 2*w*h)
		m.plus, m.minus = planes[:w*h:w*h], planes[w*h:]
		m.staleAll = true
	}
	r := m.staleVideo
	if m.staleAll {
		r = video.Region{W: w, H: h}
	}
	x0, y0 := max(r.X, 0), max(r.Y, 0)
	x1, y1 := min(r.X+r.W, w), min(r.Y+r.H, h)
	if x0 < x1 && y0 < y1 {
		m.fillChess()
		parallel.For(m.p.Workers, y1-y0, func(i int) {
			y := y0 + i
			base := y * w
			vr := m.vframe.Pix[base+x0 : base+x1]
			dr := m.chessRow(y)[x0:x1][:len(vr)]
			pr, mr := m.plus[base+x0 : base+x1][:len(vr)], m.minus[base+x0 : base+x1][:len(vr)]
			for x, v := range vr {
				pr[x] = frame.Quant8(v + dr[x])
				mr[x] = frame.Quant8(v - dr[x])
			}
		})
	}
	if m.blocksStale {
		if !m.staleAll {
			parallel.For(m.p.Workers, l.BlocksY, m.rewriteBlocks)
		}
		clear(m.staleBlock)
	}
	m.staleAll, m.blocksStale, m.staleVideo = false, false, video.Region{}
}

// rewriteBlocks rewrites, in both drive planes, every stale Block of Block
// row by at its new amplitude, judging first the flatness of any stale
// Block the last headroom scan left unjudged. A flat Block is written from
// byte patterns (rewriteFlat); the others are re-rounded at their
// chessboard-on pixels only, since off-chess pixels carry D = 0 at any
// amplitude and an amplitude change never touches them. That walk is row
// by row across the Block row, so the planes and the video are read in
// panel order. Block rows own disjoint flatness spans.
func (m *Multiplexer) rewriteBlocks(by int) {
	l := m.p.Layout
	w, ps, bp := l.FrameW, l.PixelSize, l.BlockPx()
	i0 := by * l.BlocksX
	stale := m.staleBlock[i0 : i0+l.BlocksX]
	amps := m.deltaAmp[i0 : i0+l.BlocksX]
	flat := m.flat[i0 : i0+l.BlocksX]
	mx, y0 := l.MarginX(), l.MarginY()+by*bp
	textured := false
	for bx, st := range stale {
		if !st {
			continue
		}
		if !flat[bx].judged {
			flat[bx] = m.judgeFlat(mx+bx*bp, y0)
		}
		if flat[bx].ok {
			m.rewriteFlat(mx+bx*bp, y0, flat[bx].v, amps[bx])
		} else {
			textured = true
		}
	}
	if !textured {
		return
	}
	for y := y0; y < y0+bp; y++ {
		base := y * w
		vr, pr, mr := m.vframe.Pix[base:base+w], m.plus[base:base+w], m.minus[base:base+w]
		pj := y / ps
		for bx, st := range stale {
			if !st || flat[bx].ok {
				continue
			}
			x0 := mx + bx*bp
			roundOnRuns(vr, pr, mr, x0, x0+bp, ps, pj, amps[bx])
		}
	}
}

// blockFlat is a Block's flatness in the current video frame: once
// judged, whether every pixel holds one float32 value, and that value.
type blockFlat struct {
	judged, ok bool
	v          float32
}

// judgeFlat judges the Block at (x0, y0) in the current video frame: flat
// when every pixel holds the bits of the first (Float32bits, so ±0 and two
// NaN payloads are different values). It reads the Block's rows in panel
// order and stops at the first pixel that differs, so a textured Block
// costs a few reads; the headroom scan does no extra work, and a Block no
// rewrite reaches before the next rescan is never judged.
func (m *Multiplexer) judgeFlat(x0, y0 int) blockFlat {
	l := m.p.Layout
	w, bp := l.FrameW, l.BlockPx()
	v := m.vframe.Pix[y0*w+x0]
	ref := math.Float32bits(v)
	for y := y0; y < y0+bp; y++ {
		for _, u := range m.vframe.Pix[y*w+x0 : y*w+x0+bp] {
			if math.Float32bits(u) != ref {
				return blockFlat{judged: true}
			}
		}
	}
	return blockFlat{judged: true, ok: true, v: v}
}

// rewriteFlat writes the codes of the flat Block at (x0, y0), every pixel
// v, at amplitude a: Quant8(v + a) in plus and Quant8(v − a) in minus at
// its chessboard-on pixels, and Quant8(v) at the rest, which is what both
// planes already hold there (V ± 0 is V, or +0 for −0, and Quant8 maps
// both zeros to 0). Which pixels are on depends on the panel row only
// through its Pixel-row parity, so each plane's Block rows take one of two
// byte patterns: the first row of each parity is built in place and the
// later ones copy it.
func (m *Multiplexer) rewriteFlat(x0, y0 int, v, a float32) {
	l := m.p.Layout
	w, ps, bp := l.FrameW, l.PixelSize, l.BlockPx()
	off, onP, onM := frame.Quant8(v), frame.Quant8(v+a), frame.Quant8(v-a)
	// q is the parity of row y's Pixel row, which changes at next; patP[q]
	// and patM[q] are the rows of parity q built so far.
	var patP, patM [2][]uint8
	q, next := (y0/ps)%2, (y0/ps+1)*ps
	for y := y0; y < y0+bp; y++ {
		if y == next {
			q, next = q^1, next+ps
		}
		i := y*w + x0
		pr, mr := m.plus[i:i+bp], m.minus[i:i+bp]
		if patP[q] != nil {
			copy(pr, patP[q])
			copy(mr, patM[q])
			continue
		}
		for x := range pr {
			pr[x], mr[x] = off, off
		}
		for pi, s := firstOnRun(x0, ps, q); s < x0+bp; pi, s = pi+2, (pi+2)*ps {
			for x := s - x0; x < min((pi+1)*ps, x0+bp)-x0; x++ {
				pr[x], mr[x] = onP, onM
			}
		}
		patP[q], patM[q] = pr, mr
	}
}

// roundOnRuns writes Quant8(v + a) to pr and Quant8(v − a) to mr at every
// chessboard-on pixel x in [x0, x1) of a panel row in Pixel row pj, v =
// vr[x].
func roundOnRuns(vr []float32, pr, mr []uint8, x0, x1, ps, pj int, a float32) {
	for pi, s := firstOnRun(x0, ps, pj); s < x1; pi, s = pi+2, (pi+2)*ps {
		e := min((pi+1)*ps, x1)
		for x := s; x < e; x++ {
			v := vr[x]
			pr[x] = frame.Quant8(v + a)
			mr[x] = frame.Quant8(v - a)
		}
	}
}

// prepare is the shared first half of Frame and PushFrame: it refreshes the
// video frame and headroom table for display frame k, where the refresh
// marks the reloaded pixels for the drive planes, then runs the amplitude
// step, which marks the changed Blocks, and returns k's complementary sign.
func (m *Multiplexer) prepare(k int) float32 {
	m.refreshVideo(k)
	return m.step(k)
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
			return fmt.Errorf("core: pushing frame %d: %w", k, err)
		}
	}
	return nil
}
