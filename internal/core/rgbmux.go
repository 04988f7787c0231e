package core

import (
	"fmt"

	"inframe/internal/frame"
	"inframe/internal/parallel"
	"inframe/internal/video"
)

// RGBMultiplexer is the color rendition of the transmitter: the chessboard
// delta is added equally to R, G and B (a pure luma shift, as in the
// paper's prototype), so the viewer's chroma is untouched and the camera's
// luma plane carries exactly the grayscale pipeline's signal.
//
// The clipping-aware local amplitude (§3.3) considers all three channels: a
// saturated red sky limits the amplitude just like a saturated gray one.
//
// Rendering shares the grayscale multiplexer's amplitude step (DESIGN.md
// §5j): an unsigned chessboard plane is rewritten only at the Blocks whose
// clipped amplitude changed, and each output is one fused clamp(V + sign·D)
// pass per channel — no intermediate delta frame, full-frame clone or
// separate clamp sweep on the per-frame path.
type RGBMultiplexer struct {
	p     Params
	video video.RGBSource
	data  Stream
	pool  *frame.Pool

	videoIdx int
	vframe   *frame.RGB
	headroom []float32

	// delta is the cached unsigned chessboard plane and deltaAmp its
	// per-Block amplitude memory (-1 forces the first write, as in
	// Multiplexer). rowBlocks / rowSkips are the deterministic per-row
	// counter scratch refreshAmplitudes fans out over.
	delta     *frame.Frame
	deltaAmp  []float32
	rowBlocks []int64
	rowSkips  []int64
	stats     RenderStats
}

// RenderStats returns a snapshot of the incremental-render counters.
func (m *RGBMultiplexer) RenderStats() RenderStats { return m.stats }

// NewRGBMultiplexer builds a color multiplexer; the source must match the
// layout's panel size.
func NewRGBMultiplexer(p Params, src video.RGBSource, data Stream) (*RGBMultiplexer, error) {
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
	return &RGBMultiplexer{p: p, video: src, data: data, pool: pool, videoIdx: -1}, nil
}

// Params returns the transmitter parameters.
func (m *RGBMultiplexer) Params() Params { return m.p }

// refreshVideo loads the color frame for display frame k and recomputes the
// per-block headroom across all channels.
func (m *RGBMultiplexer) refreshVideo(k int) {
	vi := k / m.p.VideoFrameRatio
	if vi == m.videoIdx {
		return
	}
	m.videoIdx = vi
	m.vframe = m.video.FrameRGB(vi)
	m.stats.VideoRefreshes++
	l := m.p.Layout
	if m.headroom == nil {
		m.headroom = make([]float32, l.NumBlocks())
	}
	m.stats.HeadroomBlocks += int64(l.NumBlocks())
	ps := l.PixelSize
	// Disjoint per-Block-row headroom writes: ordered merge, bit-identical
	// at any worker count.
	parallel.For(m.p.Workers, l.BlocksY, func(by int) {
		for bx := 0; bx < l.BlocksX; bx++ {
			x0, y0, w, h := l.BlockRect(bx, by)
			head := float32(255)
			for y := y0; y < y0+h; y++ {
				pj := y / ps
				rowBase := y * l.FrameW
				for x := x0; x < x0+w; x++ {
					if !ChessOn(x/ps, pj) {
						continue
					}
					i := rowBase + x
					for _, v := range [3]float32{m.vframe.R[i], m.vframe.G[i], m.vframe.B[i]} {
						if hi := 255 - v; hi < head {
							head = hi
						}
						if v < head {
							head = v
						}
					}
				}
			}
			if head < 0 {
				head = 0
			}
			m.headroom[by*l.BlocksX+bx] = head
		}
	})
}

// ensureScratch sizes the delta cache and the per-Block-row counter scratch
// on first use. The pooled delta frame arrives zeroed; off-chess pixels are
// never written afterwards, so they carry zero delta forever.
func (m *RGBMultiplexer) ensureScratch() {
	l := m.p.Layout
	if m.rowBlocks == nil {
		m.rowBlocks = make([]int64, l.BlocksY)
		m.rowSkips = make([]int64, l.BlocksY)
	}
	if m.delta == nil {
		m.delta = m.pool.Get(l.FrameW, l.FrameH)
		m.deltaAmp = newDeltaAmp(l)
	}
}

// writeDelta stores amplitude want at every chessboard-on pixel of Block
// (bx, by) of the delta plane; refreshAmplitudes calls it for each Block
// whose amplitude changed.
func (m *RGBMultiplexer) writeDelta(bx, by int, want float32) {
	l := m.p.Layout
	ps := l.PixelSize
	x0, y0, bw, bh := l.BlockRect(bx, by)
	for y := y0; y < y0+bh; y++ {
		fillOnRuns(m.delta.Row(y), x0, x0+bw, ps, y/ps, want)
	}
}

// refreshDelta brings the cached unsigned delta plane up to date for display
// frame k (video, headroom, then stale Blocks only) and folds the skip
// counters into the stats.
func (m *RGBMultiplexer) refreshDelta(k int) {
	if k < 0 {
		panic("core: negative display frame index")
	}
	m.refreshVideo(k)
	m.ensureScratch()
	l := m.p.Layout
	cur := m.data.DataFrame(k / m.p.Tau)
	next := m.data.DataFrame(k/m.p.Tau + 1)
	refreshAmplitudes(m.p, cur, next, k, m.headroom, m.deltaAmp, m.rowBlocks, m.rowSkips, m.writeDelta)
	for by := 0; by < l.BlocksY; by++ {
		m.stats.Blocks += m.rowBlocks[by]
		m.stats.BlocksSkipped += m.rowSkips[by]
	}
}

// DeltaFrame renders the signed chessboard-only delta of display frame k,
// with headroom clipping applied. The frame comes from the multiplexer's
// pool; callers that are done with it may return it via Recycle. The render
// is a sparse signed copy of the cached unsigned plane: only Blocks with a
// positive amplitude are written, and the pooled zeros elsewhere keep the
// output bit-identical to the former direct formulation.
func (m *RGBMultiplexer) DeltaFrame(k int) *frame.Frame {
	m.refreshDelta(k)
	l := m.p.Layout
	out := m.pool.Get(l.FrameW, l.FrameH)
	sign := float32(1)
	if k%2 == 1 {
		sign = -1
	}
	ps := l.PixelSize
	parallel.For(m.p.Workers, l.BlocksY, func(by int) {
		for bx := 0; bx < l.BlocksX; bx++ {
			want := m.deltaAmp[by*l.BlocksX+bx]
			if want <= 0 {
				continue
			}
			x0, y0, w, h := l.BlockRect(bx, by)
			for y := y0; y < y0+h; y++ {
				fillOnRuns(out.Row(y), x0, x0+w, ps, y/ps, sign*want)
			}
		}
	})
	return out
}

// Recycle returns a frame obtained from DeltaFrame to the multiplexer's
// pool for reuse by a later render.
func (m *RGBMultiplexer) Recycle(f *frame.Frame) { m.pool.Put(f) }

// FrameRGB renders the multiplexed color frame k in one fused pass per
// channel: clamp(V + sign·D) straight from the cached video frame and delta
// plane, with no intermediate delta frame or full-frame clone. The caller
// owns the returned frame.
func (m *RGBMultiplexer) FrameRGB(k int) (*frame.RGB, error) {
	m.refreshDelta(k)
	sign := float32(1)
	if k%2 == 1 {
		sign = -1
	}
	l := m.p.Layout
	out := frame.NewRGB(l.FrameW, l.FrameH)
	if err := out.AddLumaDeltaOf(m.vframe, m.delta, sign); err != nil {
		return nil, err
	}
	return out, nil
}

// LumaFrame renders the luma plane of multiplexed frame k — what the
// grayscale channel pipeline (display/camera simulators) consumes. The Rec.
// 601 dot product runs directly over the fused clamp(V + sign·D) channel
// values, so the full-color intermediate FrameRGB used to build (and drop to
// the collector) is never materialized.
func (m *RGBMultiplexer) LumaFrame(k int) (*frame.Frame, error) {
	m.refreshDelta(k)
	sign := float32(1)
	if k%2 == 1 {
		sign = -1
	}
	return m.vframe.LumaShifted(m.delta, sign)
}
