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
	// buffer, and every float frame Frame returns, which Recycle Puts back
	// so a Frame+Recycle loop reuses the same buffers forever. PushTo and
	// the channel simulator copy the multiplexer's 8-bit drive planes
	// straight into the display's drive slots (PushFrame) and take no
	// output frame at all. Nil means a private pool: callers that keep
	// every rendered frame (Render) simply never recycle. Share one pool
	// across mux, camera and receiver to share buffers end to end.
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

// Multiplexer combines a video source and a data stream into the displayed
// frame sequence (Fig. 2): each video frame is duplicated VideoFrameRatio
// times, and every displayed frame carries ±D with the complementary sign
// alternating per display frame.
//
// Rendering is incremental (DESIGN.md §5j). deltaAmp caches the clipped
// amplitude every Block carries, and a Block whose amplitude is unchanged
// since the previous frame costs no pixel work. The drive path keeps each
// complementary sign as a persistent 8-bit plane, Quant8(V + D) and
// Quant8(V − D): PushFrame re-rounds only the pixels whose video or
// amplitude changed since its previous push, then copies the plane of the
// frame's sign into the display. Frame renders float output straight from
// deltaAmp and never touches the planes.
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

	// deltaAmp remembers the clipped amplitude each Block's chessboard-on
	// pixels carry; -1 means "never rendered", which no clipped amplitude
	// (>= 0) can equal, forcing the first write.
	deltaAmp []float32

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
	staleBlock  []bool
	blocksStale bool

	// chess holds the unsigned chessboard delta D one panel row at a time:
	// row 2·by+q is D of every pixel row of Block row by whose Pixel row
	// has parity q, and the last row is the margins' zero. Frame and a
	// video rewrite read D from it; it is built on their first use.
	chess []float32

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
func (m *Multiplexer) RenderStats() RenderStats { return m.stats }

// SkipRate returns the fraction of Block renders avoided by the amplitude
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
// Either way the reloaded pixels — the union, or the whole panel — are
// marked stale in the drive planes.
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
		// buffer, the headroom table and the drive planes untouched.
		m.stats.VideoSkipped++
		m.stats.HeadroomSkipped += int64(l.NumBlocks())
		return
	}
	m.stats.VideoRefreshes++
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
				row := m.vframe.Pix[y*l.FrameW : (y+1)*l.FrameW]
				head = onRunHeadroom(row, x0, x0+w, ps, y/ps, head)
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

// ensureScratch sizes the per-Block-row counter scratch and the amplitude
// cache on first use.
func (m *Multiplexer) ensureScratch() {
	l := m.p.Layout
	if m.rowBlocks == nil {
		m.rowBlocks = make([]int64, l.BlocksY)
		m.rowSkips = make([]int64, l.BlocksY)
		m.deltaAmp = newDeltaAmp(l)
		m.staleBlock = make([]bool, l.NumBlocks())
	}
}

// newDeltaAmp returns a per-Block amplitude cache that forces every Block's
// first write: -1 equals no clipped amplitude.
func newDeltaAmp(l Layout) []float32 {
	a := make([]float32, l.NumBlocks())
	for i := range a {
		a[i] = -1
	}
	return a
}

// refreshAmplitudes is the amplitude step the grayscale and color
// multiplexers share for display frame k: each Block's envelope amplitude,
// clipped to its headroom, is compared against the amplitude its pixels
// already carry (deltaAmp), and only a changed Block is stored and reported
// through changed(bx, by, want), on the worker of its Block row. Block rows
// own disjoint deltaAmp spans and counter slots, so the fan-out is an
// ordered merge — bit-identical at any worker count — and changed may write
// any per-Block-row state. rowBlocks[by] / rowSkips[by] receive each row's
// evaluated and skipped Block counts for the caller to fold into its stats.
// headroom is whatever channel-aware bound the caller computed.
func refreshAmplitudes(p Params, cur, next *DataFrame, k int, headroom, deltaAmp []float32, rowBlocks, rowSkips []int64, changed func(bx, by int, want float32)) {
	l := p.Layout
	parallel.For(p.Workers, l.BlocksY, func(by int) {
		var total, skipped int64
		heads := headroom[by*l.BlocksX : (by+1)*l.BlocksX]
		amps := deltaAmp[by*l.BlocksX : (by+1)*l.BlocksX]
		for bx, head := range heads {
			total++
			a := envelopeBetween(p, cur, next, bx, by, k)
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
			changed(bx, by, want)
		}
		rowBlocks[by] = total
		rowSkips[by] = skipped
	})
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
// so the zeros of the first allocation stay put everywhere else — margins
// and the last (all-margin) row included. Block rows own disjoint rows.
func (m *Multiplexer) fillChess() {
	l := m.p.Layout
	w, ps := l.FrameW, l.PixelSize
	if m.chess == nil {
		m.chess = make([]float32, (2*l.BlocksY+1)*w)
	}
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
func (m *Multiplexer) chessRow(y int) []float32 {
	l := m.p.Layout
	w := l.FrameW
	r := 2 * l.BlocksY
	if dy := y - l.MarginY(); dy >= 0 && dy < l.BlocksY*l.BlockPx() {
		r = 2*(dy/l.BlockPx()) + (y/l.PixelSize)%2
	}
	return m.chess[r*w : (r+1)*w]
}

// Frame renders display frame k: the current video frame plus the signed,
// clipped, smoothed chessboard of every Block. The returned frame is drawn
// from the multiplexer's pool; the caller owns it until it hands it back
// via Recycle (or keeps it forever — Render's contract).
//
// The render is incremental: the amplitude step re-evaluates every Block
// but stores only the changed ones, the chess rows spread the amplitudes
// over one panel row per (Block row, Pixel-row parity), and one fused sweep
// writes out = clamp(V + sign·D). The output is bit-identical to the direct
// clone+add+clamp formulation — see DESIGN.md §5j for the argument and
// TestFusedRenderMatchesReference for the adversarial check. Frame leaves
// the drive planes and their stale marks to PushFrame.
func (m *Multiplexer) Frame(k int) *frame.Frame {
	sign := m.prepare(k)
	m.fillChess()
	// Fused output pass: clone, signed add and clamp in one sweep. Pixel
	// rows are disjoint, so the fan-out is again an ordered merge.
	l := m.p.Layout
	out := m.pool.Get(l.FrameW, l.FrameH)
	parallel.For(m.p.Workers, l.FrameH, func(y int) {
		vr, op := m.vframe.Row(y), out.Row(y)
		dr := m.chessRow(y)[:len(vr)]
		op = op[:len(vr)]
		for x, v := range vr {
			v += sign * dr[x]
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			op[x] = v
		}
	})
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
// included, then the chessboard-on pixels of each Block whose amplitude
// changed, unless the whole panel was just rewritten. A pixel's codes are a
// function of its V and D alone, so a pixel rewritten twice or in either
// pass gets the same codes, and the fan-outs over disjoint rows are
// bit-identical at any worker count.
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

// rewriteBlocks re-rounds, in both drive planes, the chessboard-on pixels
// of every stale Block of Block row by. Off-chess pixels carry D = 0 at any
// amplitude, so an amplitude change never touches them. The walk is row by
// row across the Block row, so the planes and the video are read in panel
// order.
func (m *Multiplexer) rewriteBlocks(by int) {
	l := m.p.Layout
	w, ps, bp := l.FrameW, l.PixelSize, l.BlockPx()
	stale := m.staleBlock[by*l.BlocksX : (by+1)*l.BlocksX]
	amps := m.deltaAmp[by*l.BlocksX : (by+1)*l.BlocksX]
	mx, y0 := l.MarginX(), l.MarginY()+by*bp
	for y := y0; y < y0+bp; y++ {
		base := y * w
		vr, pr, mr := m.vframe.Pix[base:base+w], m.plus[base:base+w], m.minus[base:base+w]
		pj := y / ps
		for bx, st := range stale {
			if !st {
				continue
			}
			x0 := mx + bx*bp
			roundOnRuns(vr, pr, mr, x0, x0+bp, ps, pj, amps[bx])
		}
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
// video frame, headroom table and Block amplitudes for display frame k,
// marks what changed for the drive planes, folds the work counters into the
// stats, and returns k's complementary sign (+1 on even frames, −1 on odd).
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
	stale := m.staleBlock
	refreshAmplitudes(m.p, cur, next, k, m.headroom, m.deltaAmp, m.rowBlocks, m.rowSkips, func(bx, by int, _ float32) {
		stale[by*l.BlocksX+bx] = true
	})
	for by := 0; by < l.BlocksY; by++ {
		m.stats.Blocks += m.rowBlocks[by]
		m.stats.BlocksSkipped += m.rowSkips[by]
		if m.rowSkips[by] < m.rowBlocks[by] {
			m.blocksStale = true
		}
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
