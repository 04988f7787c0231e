package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"inframe/internal/display"
	"inframe/internal/frame"
	"inframe/internal/video"
)

// refRender renders display frame k the pre-refactor way — clone each
// video plane, add the signed clipped envelope at every chessboard-on pixel,
// clamp — with the same float expressions the fused path uses, so any
// divergence is the fusion's fault, not the reference's. planes are the
// video frame's channels (one for gray; R, G and B for color), and each
// Block's headroom is the minimum over every chessboard-on pixel of every
// plane.
func refRender(p Params, data Stream, k int, planes ...*frame.Frame) []*frame.Frame {
	l := p.Layout
	outs := make([]*frame.Frame, len(planes))
	for c, v := range planes {
		outs[c] = v.Clone()
	}
	sign := float32(1)
	if k%2 == 1 {
		sign = -1
	}
	ps := l.PixelSize
	cur := data.DataFrame(k / p.Tau)
	next := data.DataFrame(k/p.Tau + 1)
	for by := 0; by < l.BlocksY; by++ {
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
					for _, v := range planes {
						pv := v.Pix[rowBase+x]
						if hi := 255 - pv; hi < head {
							head = hi
						}
						if pv < head {
							head = pv
						}
					}
				}
			}
			if head < 0 {
				head = 0
			}
			a := envelope(p, cur.Bit(bx, by), next.Bit(bx, by), k)
			if hd := float64(head); a > hd {
				a = hd
			}
			if a < 0 {
				a = 0
			}
			want := float32(a)
			for y := y0; y < y0+h; y++ {
				pj := y / ps
				rowBase := y * l.FrameW
				for x := x0; x < x0+w; x++ {
					if ChessOn(x/ps, pj) {
						i := rowBase + x
						for c, v := range planes {
							outs[c].Pix[i] = v.Pix[i] + float32(sign*want)
						}
					}
				}
			}
		}
	}
	for _, out := range outs {
		for i, pv := range out.Pix {
			if pv < 0 {
				out.Pix[i] = 0
			} else if pv > 255 {
				out.Pix[i] = 255
			}
		}
	}
	return outs
}

// adversarialVideo builds a short clip of the frames the fused clamp must
// not mishandle: all-black, all-white, values one delta away from both clamp
// edges, and NaN-free rationals that exercise float rounding.
func adversarialVideo(l Layout, delta float32) *video.Clip {
	mk := func(fill func(i int) float32) *frame.Frame {
		f := frame.New(l.FrameW, l.FrameH)
		for i := range f.Pix {
			f.Pix[i] = fill(i)
		}
		return f
	}
	edge := []float32{0, 255, delta, 255 - delta, delta - 0.25, 255.5 - delta}
	rational := []float32{1.0 / 3, 254 + 2.0/3, 100.0 / 7, 200.0 / 3}
	return video.NewClip([]*frame.Frame{
		mk(func(int) float32 { return 0 }),
		mk(func(int) float32 { return 255 }),
		mk(func(i int) float32 { return edge[i%len(edge)] }),
		mk(func(i int) float32 { return rational[i%len(rational)] }),
	})
}

// TestFusedRenderMatchesReference: the incremental pair-aware renderer must
// be bit-identical to the direct clone+add+clamp formulation over the
// adversarial clip at every worker count, including across video-frame
// switches that invalidate the caches.
func TestFusedRenderMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := smallParams()
		p.Workers = workers
		p.VideoFrameRatio = 2
		src := adversarialVideo(p.Layout, float32(p.Delta))
		data := NewRandomStream(p.Layout, 7)
		m := newMux(t, p, src, data)
		for k := 0; k < 3*p.Tau; k++ {
			got := m.Frame(k)
			want := refRender(p, data, k, src.Frame(k/p.VideoFrameRatio))[0]
			for i := range want.Pix {
				if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
					t.Fatalf("workers=%d frame %d pixel %d: fused %v, reference %v",
						workers, k, i, got.Pix[i], want.Pix[i])
				}
			}
			m.Recycle(got)
		}
	}
}

// TestPushFrameMatchesPush: rendering straight into the display's drive
// slots must store exactly the codes Push(Frame(k)) quantizes — on flat
// gray, on the textured sun-rise clip (fractional video, clipped headroom)
// and on the adversarial clamp-edge clip, for two data cycles, at every
// worker count. With gamma 1 the luminance table is injective, so equal
// luminance bits mean equal drive codes.
func TestPushFrameMatchesPush(t *testing.T) {
	p0 := smallParams()
	l := p0.Layout
	sources := map[string]func() video.Source{
		"gray":        func() video.Source { return video.Gray(l.FrameW, l.FrameH) },
		"sun-rise":    func() video.Source { return video.NewSunRise(l.FrameW, l.FrameH, 4) },
		"adversarial": func() video.Source { return adversarialVideo(l, float32(p0.Delta)) },
	}
	dcfg := display.Config{RefreshHz: 120, Brightness: 1, Gamma: 1}
	for name, src := range sources {
		for _, workers := range []int{1, 2, 8} {
			p := p0
			p.Workers = workers
			fused := newMux(t, p, src(), NewRandomStream(l, 9))
			ref := newMux(t, p, src(), NewRandomStream(l, 9))
			got, err := display.New(dcfg)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := display.New(dcfg)
			n := 2 * p.Tau
			if err := fused.PushTo(got, n); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < n; k++ {
				f := ref.Frame(k)
				if err := want.Push(f); err != nil {
					t.Fatal(err)
				}
				ref.Recycle(f)
			}
			for k := 0; k < n; k++ {
				g, w := got.Luminance(k), want.Luminance(k)
				for i := range w.Pix {
					if math.Float32bits(g.Pix[i]) != math.Float32bits(w.Pix[i]) {
						t.Fatalf("%s workers=%d frame %d pixel %d: PushFrame drives %v, Push(Frame) %v",
							name, workers, k, i, g.Pix[i], w.Pix[i])
					}
				}
			}
			if fused.RenderStats() != ref.RenderStats() {
				t.Fatalf("%s workers=%d: render stats %+v, want %+v", name, workers, fused.RenderStats(), ref.RenderStats())
			}
		}
	}
}

// TestIncrementalRenderMatchesFresh: rendering a ticker sequence through one
// long-lived multiplexer (dirty-region skips, delta cache hits) must equal
// rendering each frame through a fresh multiplexer that refreshes everything
// — and the long-lived one must actually have skipped work.
func TestIncrementalRenderMatchesFresh(t *testing.T) {
	p := smallParams()
	p.Workers = 2
	l := p.Layout
	src := video.NewTicker(l.FrameW, l.FrameH, 5, 3)
	data := NewRandomStream(l, 11)
	inc := newMux(t, p, src, data)
	n := 4 * p.Tau
	for k := 0; k < n; k++ {
		got := inc.Frame(k)
		fresh := newMux(t, p, video.NewTicker(l.FrameW, l.FrameH, 5, 3), NewRandomStream(l, 11))
		want := fresh.Frame(k)
		if !got.Equal(want) {
			t.Fatalf("frame %d: incremental render diverges from fresh render", k)
		}
		inc.Recycle(got)
	}
	st := inc.RenderStats()
	if st.BlocksSkipped == 0 {
		t.Error("delta cache never skipped a Block over a ticker sequence")
	}
	if st.HeadroomSkipped == 0 {
		t.Error("dirty-region hint never skipped a headroom scan")
	}
	if st.Blocks != int64(n*l.NumBlocks()) {
		t.Errorf("stats saw %d Block evaluations, want %d", st.Blocks, n*l.NumBlocks())
	}
	if rate := st.SkipRate(); rate <= 0 || rate >= 1 {
		t.Errorf("skip rate %v outside (0, 1)", rate)
	}
}

// TestDeltaCacheFrozenPool: once the render loop is warm, the amplitude
// cache must add zero steady-state pool misses — the only pooled buffers
// are the video buffer and the in-flight output frame.
func TestDeltaCacheFrozenPool(t *testing.T) {
	pool := frame.NewPool()
	p := smallParams()
	p.Pool = pool
	l := p.Layout
	m := newMux(t, p, video.NewTicker(l.FrameW, l.FrameH, 9, 2), NewRandomStream(l, 3))
	for k := 0; k < 2*p.Tau; k++ {
		m.Recycle(m.Frame(k))
	}
	warm := pool.Stats().Misses
	for k := 2 * p.Tau; k < 8*p.Tau; k++ {
		m.Recycle(m.Frame(k))
	}
	if got := pool.Stats().Misses; got != warm {
		t.Fatalf("steady-state render missed the pool %d more times after warmup", got-warm)
	}
}

// rgbEdgeVideo is the color clamp-edge clip: the adversarial gray frames on
// all three channels, then frames in which one channel per Block, rotating
// with the Block and the frame, sits within a delta of a clamp edge while
// the other two stay mid-range, so each channel alone sets some Blocks'
// headroom.
func rgbEdgeVideo(l Layout, delta float32) *video.RGBClip {
	gray := adversarialVideo(l, delta)
	var frames []*frame.RGB
	for i := 0; i < 4; i++ {
		frames = append(frames, frame.FromLuma(gray.Frame(i)))
	}
	bp := l.BlockPx()
	edge := []float32{255 - float32(delta/2), delta / 3, 255 - float32(delta/4), delta - 0.5}
	for i := 0; i < 3; i++ {
		f := frame.NewRGB(l.FrameW, l.FrameH)
		for y := 0; y < l.FrameH; y++ {
			for x := 0; x < l.FrameW; x++ {
				bx, by := max(x-l.MarginX(), 0)/bp, max(y-l.MarginY(), 0)/bp
				ch := [3]float32{100.0 / 3, 128, 200.0 / 7}
				ch[(bx+by+i)%3] = edge[(bx+2*by+i)%len(edge)]
				f.Set(x, y, ch[0], ch[1], ch[2])
			}
		}
		frames = append(frames, f)
	}
	return video.NewRGBClip(frames, 30)
}

// TestRGBRenderMatchesReference: the color multiplexer's render must be
// bit-identical, channel by channel, to the direct clone+add+clamp reference
// over all three planes — the headroom taken across R, G and B — over the
// color clamp-edge clip at every worker count, across video-frame switches.
func TestRGBRenderMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := smallParams()
		p.Workers = workers
		p.VideoFrameRatio = 2
		src := rgbEdgeVideo(p.Layout, float32(p.Delta))
		data := NewRandomStream(p.Layout, 5)
		m, err := NewRGBMultiplexer(p, src, data)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3*p.Tau; k++ {
			got := m.FrameRGB(k)
			v := src.FrameRGB(k / p.VideoFrameRatio)
			plane := func(pix []float32) *frame.Frame { return &frame.Frame{W: v.W, H: v.H, Pix: pix} }
			want := refRender(p, data, k, plane(v.R), plane(v.G), plane(v.B))
			for c, g := range [][]float32{got.R, got.G, got.B} {
				for i, w := range want[c].Pix {
					if math.Float32bits(g[i]) != math.Float32bits(w) {
						t.Fatalf("workers=%d frame %d channel %c pixel %d: render %v, reference %v",
							workers, k, "RGB"[c], i, g[i], w)
					}
				}
			}
		}
		if m.RenderStats().BlocksSkipped == 0 {
			t.Error("RGB amplitude cache never skipped a Block")
		}
	}
}

// hintedClip is a looping clip with an exact dirty-region hint: the
// bounding box of the pixels whose bits differ from the previous frame's.
type hintedClip struct{ *video.Clip }

// DirtyRegion implements video.RegionSource.
func (c hintedClip) DirtyRegion(i int) (video.Region, bool) {
	if i <= 0 {
		return video.Region{}, false
	}
	n := len(c.Frames)
	a, b := c.Frames[(i-1)%n], c.Frames[i%n]
	var r video.Region
	for j := range a.Pix {
		if math.Float32bits(a.Pix[j]) != math.Float32bits(b.Pix[j]) {
			r = r.Union(video.Region{X: j % a.W, Y: j / a.W, W: 1, H: 1})
		}
	}
	return r, true
}

// blockClip builds an n-frame hinted clip of l's panel: the margins hold
// 90, and fill(f, bx, by, dx, dy, on) returns pixel (dx, dy) of Block
// (bx, by) in frame f, on saying whether the pixel is chessboard-on.
func blockClip(l Layout, n int, fill func(f, bx, by, dx, dy int, on bool) float32) hintedClip {
	frames := make([]*frame.Frame, n)
	bp, ps := l.BlockPx(), l.PixelSize
	for f := range frames {
		fr := frame.NewFilled(l.FrameW, l.FrameH, 90)
		for by := 0; by < l.BlocksY; by++ {
			for bx := 0; bx < l.BlocksX; bx++ {
				x0, y0, _, _ := l.BlockRect(bx, by)
				for dy := 0; dy < bp; dy++ {
					for dx := 0; dx < bp; dx++ {
						x, y := x0+dx, y0+dy
						fr.Pix[y*l.FrameW+x] = fill(f, bx, by, dx, dy, ChessOn(x/ps, y/ps))
					}
				}
			}
		}
		frames[f] = fr
	}
	return hintedClip{video.NewClip(frames)}
}

// oddPixelVideo is a clip of Blocks that are flat but for one pixel: the
// odd pixel sits on an off-pixel inside the Block, in its last row or in
// its last column, the choice rotating with the Block and the video frame,
// and one Block in four is wholly flat. Only the lower half of the Block
// rows changes between frames, so the exact hint rescans those Blocks and
// skips the rest.
func oddPixelVideo(l Layout, delta float32) hintedClip {
	levels := []float32{180, 127, 0, 255, delta / 2, 255 - float32(delta/2), 100.0 / 3}
	bp, ps := l.BlockPx(), l.PixelSize
	return blockClip(l, 6, func(f, bx, by, dx, dy int, _ bool) float32 {
		if by < l.BlocksY/2 {
			f = 0
		}
		// The odd pixel sits near 255: on an on-pixel it sets the
		// Block's headroom, so the amplitude changes with its position.
		v := levels[(bx+l.BlocksX*by)%len(levels)]
		odd := 255 - float32(v/16)
		switch (bx + 2*by + f) % 4 {
		case 0: // the first off-pixel right of the Block's edge in its middle row
			x0, y0, _, _ := l.BlockRect(bx, by)
			ox := 1
			for ChessOn((x0+ox)/ps, (y0+bp/2)/ps) {
				ox++
			}
			if dy == bp/2 && dx == ox {
				return odd
			}
		case 1: // the last row
			if dy == bp-1 && dx == (f+bx)%bp {
				return odd
			}
		case 2: // the last column
			if dx == bp-1 && dy == (f+by)%bp {
				return odd
			}
		}
		return v
	})
}

// flatLevelVideo is a clip of wholly flat Blocks at the levels the flat
// rewrite must round exactly like the per-pixel path: 0, 255, −0, NaN,
// levels within δ of either clamp edge (so the amplitude clips to the
// headroom and v ± a lands on 0 or 255), rounding ties and a non-terminating
// rational. Among them sit Blocks that mix +0 and −0, which are not flat:
// one alternates the two by pixel column, one holds +0 on its on-pixels and
// −0 on its off-pixels. The level of each Block rotates with the video
// frame.
func flatLevelVideo(l Layout, delta float32) hintedClip {
	negZero := float32(math.Copysign(0, -1))
	const mixColumns, mixOnOff = -1, -2
	levels := []float32{0, 255, negZero, float32(math.NaN()), delta / 2, 255 - float32(delta/2),
		delta - 0.25, 255.25 - delta, 0.5, 254.5, 127.5, 200.0 / 3, mixColumns, mixOnOff}
	return blockClip(l, 3, func(f, bx, by, dx, _ int, on bool) float32 {
		switch v := levels[(bx+l.BlocksX*by+5*f)%len(levels)]; {
		case v == mixColumns && dx%2 == 1, v == mixOnOff && !on:
			return negZero
		case v == mixColumns, v == mixOnOff:
			return 0
		default:
			return v
		}
	})
}

// sameRender reports whether a float render matches its reference: equal
// bits, except that +0 and −0 match. The fused kernel and the cached
// amplitude may turn an input −0 into +0 or back (DESIGN.md §5j), and
// Quant8 maps both to code 0.
func sameRender(got, want float32) bool {
	return math.Float32bits(got) == math.Float32bits(want) || (got == 0 && want == 0)
}

// driveOp is one call in TestDriveMatchesReference's walk: PushFrame(k),
// or Frame(k) when frame is set.
type driveOp struct {
	frame bool
	k     int
}

// driveWalk returns the calls TestDriveMatchesReference makes: k in
// sequence for three data cycles, then a fixed walk with repeats, skipped
// video frames, backwards jumps and Frame calls that move the multiplexer
// on between pushes, then a seeded random walk of the same moves.
func driveWalk(tau int) []driveOp {
	var ops []driveOp
	for k := 0; k < 3*tau; k++ {
		ops = append(ops, driveOp{k: k})
	}
	ops = append(ops,
		driveOp{k: 3*tau - 1},             // repeat
		driveOp{true, 30}, driveOp{k: 30}, // Frame moves first; the push must still rewrite
		driveOp{k: 37},                    // skip three video frames
		driveOp{true, 44}, driveOp{k: 31}, // Frame ahead, push behind
		driveOp{k: 2}, driveOp{k: 3}, // backwards to the start
		driveOp{true, 3}, driveOp{k: 3}, // the same frame both ways
		driveOp{k: 60}, driveOp{true, 61}, driveOp{true, 9}, driveOp{k: 62},
		driveOp{k: 62}, driveOp{true, 17}, driveOp{k: 16}, driveOp{k: 0},
	)
	rng := rand.New(rand.NewSource(21))
	k := 0
	for i := 0; i < 60; i++ {
		switch rng.Intn(4) {
		case 1:
			k++
		case 2:
			k += 1 + rng.Intn(3*tau)
		case 3:
			k = rng.Intn(8 * tau)
		}
		ops = append(ops, driveOp{rng.Intn(3) == 0, k})
	}
	return ops
}

// driveCodes maps every luminance a display configured as cfg shows back to
// its drive code, read off the display's own lookup table (injective at
// gamma 1).
func driveCodes(t *testing.T, cfg display.Config) map[uint32]uint8 {
	t.Helper()
	d, err := display.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ramp := frame.New(256, 1)
	for v := range ramp.Pix {
		ramp.Pix[v] = float32(v)
	}
	if err := d.Push(ramp); err != nil {
		t.Fatal(err)
	}
	codes := make(map[uint32]uint8, 256)
	for v, lum := range d.Luminance(0).Pix {
		codes[math.Float32bits(lum)] = uint8(v)
	}
	if len(codes) != 256 {
		t.Fatalf("display lookup table maps 256 codes to %d luminances", len(codes))
	}
	return codes
}

// TestDriveMatchesReference: every drive code PushFrame stores must be
// frame.Quant8 of the direct clone+add+clamp render, whatever calls came
// before — frames in sequence, then walks with repeats, skipped video
// frames, backwards jumps and Frame calls between pushes (whose float
// output must match the reference too, ±0 aside). Sources: flat gray, the
// sun-rise clip (a full refresh per video frame), the adversarial
// clamp-edge clip, a ticker (partial dirty regions), Blocks flat but for
// one rotating pixel and flat Blocks at edge levels (both hinted exactly,
// so flatness is re-judged for the Blocks a partial region touches and
// kept for the rest). Layouts: the small layout and one
// whose one-pixel margins cut the grid's first Pixel column and row in
// two. Workers 1, 2 and 8; the render counters must equal those of a
// multiplexer that made the same calls through Frame.
func TestDriveMatchesReference(t *testing.T) {
	straddle := smallLayout()
	straddle.FrameW, straddle.FrameH = 50, 35
	if straddle.MarginX()%straddle.PixelSize == 0 || straddle.MarginY()%straddle.PixelSize == 0 {
		t.Fatalf("margins %d,%d do not cut a Pixel", straddle.MarginX(), straddle.MarginY())
	}
	dcfg := display.Config{RefreshHz: 120, Brightness: 1, Gamma: 1}
	codes := driveCodes(t, dcfg)
	for _, l := range []Layout{smallLayout(), straddle} {
		p0 := smallParams()
		p0.Layout = l
		p0.VideoFrameRatio = 2
		sources := map[string]func() video.Source{
			"gray":        func() video.Source { return video.Gray(l.FrameW, l.FrameH) },
			"sun-rise":    func() video.Source { return video.NewSunRise(l.FrameW, l.FrameH, 4) },
			"adversarial": func() video.Source { return adversarialVideo(l, float32(p0.Delta)) },
			"ticker":      func() video.Source { return video.NewTicker(l.FrameW, l.FrameH, 5, 3) },
			"odd-pixel":   func() video.Source { return oddPixelVideo(l, float32(p0.Delta)) },
			"flat-levels": func() video.Source { return flatLevelVideo(l, float32(p0.Delta)) },
		}
		for name, src := range sources {
			for _, workers := range []int{1, 2, 8} {
				p := p0
				p.Workers = workers
				tag := fmt.Sprintf("%dx%d %s workers=%d", l.FrameW, l.FrameH, name, workers)
				m := newMux(t, p, src(), NewRandomStream(l, 9))
				ref := newMux(t, p, src(), NewRandomStream(l, 9))
				vsrc, data := src(), NewRandomStream(l, 9)
				d, err := display.New(dcfg)
				if err != nil {
					t.Fatal(err)
				}
				for i, op := range driveWalk(p.Tau) {
					want := refRender(p, data, op.k, vsrc.Frame(op.k/p.VideoFrameRatio))[0]
					ref.Recycle(ref.Frame(op.k))
					if op.frame {
						got := m.Frame(op.k)
						for j := range want.Pix {
							if !sameRender(got.Pix[j], want.Pix[j]) {
								t.Fatalf("%s call %d Frame(%d) pixel %d: %v, reference %v", tag, i, op.k, j, got.Pix[j], want.Pix[j])
							}
						}
						m.Recycle(got)
						continue
					}
					if err := m.PushFrame(d, op.k); err != nil {
						t.Fatal(err)
					}
					lum := d.Luminance(d.NumFrames() - 1)
					for j, v := range want.Pix {
						if got, w := codes[math.Float32bits(lum.Pix[j])], frame.Quant8(v); got != w {
							t.Fatalf("%s call %d PushFrame(%d) pixel (%d,%d): code %d, reference %d",
								tag, i, op.k, j%l.FrameW, j/l.FrameW, got, w)
						}
					}
				}
				if m.RenderStats() != ref.RenderStats() {
					t.Fatalf("%s: render stats %+v, want %+v", tag, m.RenderStats(), ref.RenderStats())
				}
			}
		}
	}
}
