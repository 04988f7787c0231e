package core

import (
	"math"
	"runtime"
	"testing"

	"inframe/internal/frame"
	"inframe/internal/video"
)

func rgbTestSource(l Layout) video.RGBSource {
	base := frame.NewRGBFilled(l.FrameW, l.FrameH, 140, 160, 120)
	return &video.RGBClip{Frames: []*frame.RGB{base}, Rate: 30}
}

func TestNewRGBMultiplexerValidation(t *testing.T) {
	p := smallParams()
	if _, err := NewRGBMultiplexer(p, &video.RGBClip{
		Frames: []*frame.RGB{frame.NewRGB(4, 4)}, Rate: 30,
	}, constStream(p.Layout, nil)); err == nil {
		t.Fatal("accepted mismatched source")
	}
	bad := p
	bad.Tau = 3
	if _, err := NewRGBMultiplexer(bad, rgbTestSource(p.Layout), constStream(p.Layout, nil)); err == nil {
		t.Fatal("accepted bad params")
	}
}

// TestRGBPairFusesAndPreservesChroma: the color pair averages back to the
// original, and individual frames keep the original chroma.
func TestRGBPairFusesAndPreservesChroma(t *testing.T) {
	p := smallParams()
	l := p.Layout
	src := rgbTestSource(l)
	ones := constStream(l, func(df *DataFrame) {
		for i := range df.Bits {
			df.Bits[i] = true
		}
	})
	m, err := NewRGBMultiplexer(p, src, ones)
	if err != nil {
		t.Fatal(err)
	}
	f0, f1 := m.FrameRGB(0), m.FrameRGB(1)
	orig := src.FrameRGB(0)
	for i := range orig.R {
		if avg := float32((f0.R[i] + f1.R[i]) / 2); math.Abs(float64(avg-orig.R[i])) > 1e-3 {
			t.Fatalf("R pixel %d fuses to %v, want %v", i, avg, orig.R[i])
		}
		if avg := float32((f0.G[i] + f1.G[i]) / 2); math.Abs(float64(avg-orig.G[i])) > 1e-3 {
			t.Fatalf("G pixel %d fuses to %v, want %v", i, avg, orig.G[i])
		}
		if avg := float32((f0.B[i] + f1.B[i]) / 2); math.Abs(float64(avg-orig.B[i])) > 1e-3 {
			t.Fatalf("B pixel %d fuses to %v, want %v", i, avg, orig.B[i])
		}
	}
	// Chroma of the multiplexed frame matches the original (luma-only add).
	_, cb0, cr0 := orig.YCbCr()
	_, cb1, cr1 := f0.YCbCr()
	for i := range cb0.Pix {
		if math.Abs(float64(cb1.Pix[i]-cb0.Pix[i])) > 1e-2 ||
			math.Abs(float64(cr1.Pix[i]-cr0.Pix[i])) > 1e-2 {
			t.Fatalf("chroma drifted at pixel %d", i)
		}
	}
}

// TestRGBLumaMatchesGrayPipeline: the color multiplexer's luma plane equals
// the grayscale multiplexer's output over the equivalent gray source.
func TestRGBLumaMatchesGrayPipeline(t *testing.T) {
	p := smallParams()
	l := p.Layout
	ones := constStream(l, func(df *DataFrame) {
		for i := range df.Bits {
			df.Bits[i] = true
		}
	})
	graySrc := video.NewSolid(l.FrameW, l.FrameH, 150)
	colorSrc := video.Colorize{Src: graySrc}
	gm := newMux(t, p, graySrc, ones)
	cm, err := NewRGBMultiplexer(p, colorSrc, ones)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 5} {
		want := gm.Frame(k)
		mae, _ := frame.MAE(want, cm.FrameRGB(k).Luma())
		if mae > 1e-3 {
			t.Fatalf("frame %d luma MAE %v", k, mae)
		}
	}
}

// TestRGBHeadroomAcrossChannels: a block saturated in only one channel
// still limits the amplitude.
func TestRGBHeadroomAcrossChannels(t *testing.T) {
	p := smallParams()
	l := p.Layout
	// Red channel near 255, others mid: headroom = 255−250 = 5.
	base := frame.NewRGBFilled(l.FrameW, l.FrameH, 250, 128, 128)
	src := &video.RGBClip{Frames: []*frame.RGB{base}, Rate: 30}
	ones := constStream(l, func(df *DataFrame) {
		for i := range df.Bits {
			df.Bits[i] = true
		}
	})
	m, err := NewRGBMultiplexer(p, src, ones)
	if err != nil {
		t.Fatal(err)
	}
	f0 := m.FrameRGB(0)
	var maxShift float64
	for i := range f0.R {
		if d := math.Abs(float64(f0.R[i] - 250)); d > maxShift {
			maxShift = d
		}
	}
	if math.Abs(maxShift-5) > 1e-3 {
		t.Fatalf("red-channel shift %v, want clamped to headroom 5", maxShift)
	}
	// No channel leaves [0,255].
	for i := range f0.R {
		for _, v := range []float32{f0.R[i], f0.G[i], f0.B[i]} {
			if v < 0 || v > 255 {
				t.Fatalf("channel value %v out of range", v)
			}
		}
	}
}

func TestColorAdapters(t *testing.T) {
	l := smallLayout()
	gray := video.NewSolid(l.FrameW, l.FrameH, 99)
	rgb := video.Colorize{Src: gray}
	w, h := rgb.Size()
	if w != l.FrameW || h != l.FrameH || rgb.FPS() != gray.FPS() {
		t.Fatal("Colorize adapter metadata wrong")
	}
	back := video.Luma{Src: rgb}
	if v := back.Frame(0).At(1, 1); math.Abs(float64(v)-99) > 1e-3 {
		t.Fatalf("Luma(Colorize(gray)) = %v", v)
	}
	if back.FPS() != gray.FPS() {
		t.Fatal("Luma adapter FPS wrong")
	}
}

func TestColorSunRise(t *testing.T) {
	s := video.NewColorSunRise(64, 48, 3)
	f := s.FrameRGB(0)
	if f.W != 64 || f.H != 48 {
		t.Fatal("size wrong")
	}
	// Deterministic.
	g := video.NewColorSunRise(64, 48, 3).FrameRGB(0)
	for i := range f.R {
		if f.R[i] != g.R[i] {
			t.Fatal("not deterministic")
		}
	}
	// Sky is bluer than ground, ground greener than sky (tint check).
	skyB, skyG := 0.0, 0.0
	gndB, gndG := 0.0, 0.0
	n := 0
	for x := 0; x < 64; x++ {
		skyB += float64(f.B[5*64+x])
		skyG += float64(f.G[5*64+x])
		gndB += float64(f.B[44*64+x])
		gndG += float64(f.G[44*64+x])
		n++
	}
	if skyB/skyG <= gndB/gndG {
		t.Fatalf("sky not bluer than ground: sky B/G %.2f vs ground %.2f",
			skyB/skyG, gndB/gndG)
	}
	if s.FPS() != 30 {
		t.Fatal("FPS wrong")
	}
}

// TestRGBRenderStatsMatchGray: through video.Colorize the color multiplexer
// reads its grayscale source's dirty-region hint, so over the same source
// and the same calls — frames in sequence, repeats, skipped video frames and
// backwards jumps — it skips exactly the loads and headroom scans the
// grayscale multiplexer skips: their RenderStats are equal, on static gray
// (every load after the first skipped) and on a ticker (partial regions).
func TestRGBRenderStatsMatchGray(t *testing.T) {
	p := smallParams()
	l := p.Layout
	for name, src := range map[string]func() video.Source{
		"gray":   func() video.Source { return video.Gray(l.FrameW, l.FrameH) },
		"ticker": func() video.Source { return video.NewTicker(l.FrameW, l.FrameH, 5, 3) },
	} {
		gray := newMux(t, p, src(), NewRandomStream(l, 4))
		color, err := NewRGBMultiplexer(p, video.Colorize{Src: src()}, NewRandomStream(l, 4))
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range driveWalk(p.Tau) {
			gray.Recycle(gray.Frame(op.k))
			color.FrameRGB(op.k)
		}
		g, c := gray.RenderStats(), color.RenderStats()
		if c != g {
			t.Errorf("%s: color render stats %+v, grayscale %+v", name, c, g)
		}
		if g.HeadroomSkipped == 0 {
			t.Errorf("%s: the grayscale multiplexer skipped no headroom scan (%+v)", name, g)
		}
	}
}

// TestRGBDirtyHintMatchesUnhinted: a colorized ticker, and colorized
// Blocks flat but for one pixel at clamp-edge levels (whose headroom sets
// the amplitude, and whose lower half alone changes), render bit for bit
// like the same sources with the dirty-region hint hidden, which reload and
// rescan every video frame, under the same calls at Workers 1, 2 and 8.
func TestRGBDirtyHintMatchesUnhinted(t *testing.T) {
	p0 := smallParams()
	p0.VideoFrameRatio = 2
	l := p0.Layout
	sources := map[string]func() video.Source{
		"ticker":    func() video.Source { return video.NewTicker(l.FrameW, l.FrameH, 5, 3) },
		"odd-pixel": func() video.Source { return oddPixelVideo(l, float32(p0.Delta)) },
	}
	for name, src := range sources {
		for _, workers := range []int{1, 2, 8} {
			p := p0
			p.Workers = workers
			hinted, err := NewRGBMultiplexer(p, video.Colorize{Src: src()}, NewRandomStream(l, 6))
			if err != nil {
				t.Fatal(err)
			}
			// Embedding the interface hides every method but RGBSource's.
			plain, err := NewRGBMultiplexer(p, struct{ video.RGBSource }{video.Colorize{Src: src()}}, NewRandomStream(l, 6))
			if err != nil {
				t.Fatal(err)
			}
			for i, op := range driveWalk(p.Tau) {
				got, want := hinted.FrameRGB(op.k), plain.FrameRGB(op.k)
				for c, pair := range [][2][]float32{{got.R, want.R}, {got.G, want.G}, {got.B, want.B}} {
					for j, w := range pair[1] {
						if math.Float32bits(pair[0][j]) != math.Float32bits(w) {
							t.Fatalf("%s workers=%d call %d FrameRGB(%d) channel %c pixel %d: hinted %v, unhinted %v",
								name, workers, i, op.k, "RGB"[c], j, pair[0][j], w)
						}
					}
				}
			}
			if hinted.RenderStats().HeadroomSkipped == 0 {
				t.Errorf("%s workers=%d: the hint skipped no headroom scan", name, workers)
			}
			if st := plain.RenderStats(); st.HeadroomSkipped != 0 || st.VideoSkipped != 0 {
				t.Errorf("%s workers=%d: the unhinted source skipped work: %+v", name, workers, st)
			}
		}
	}
}

// TestFrameRGBIntoAllocs: FrameRGBInto renders what FrameRGB renders, and
// a warm FrameRGBInto over a colorized gray source, whose hint certifies
// every video frame after the first unchanged, writes into the caller's
// frame and allocates no plane. What it still allocates, at Workers 1, is
// one row fan-out closure per parallel pass (the amplitude step, the chess
// rows and the three channel renders), as the grayscale Frame path does:
// five per frame, a few hundred bytes against FrameRGB's three planes.
func TestFrameRGBIntoAllocs(t *testing.T) {
	l, err := ScaledPaperLayout(4)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(l)
	p.Workers = 1
	// Two data frames on a loop: the stream allocates nothing per frame.
	rs := NewRandomStream(l, 6)
	data := &FixedStream{Frames: []*DataFrame{rs.DataFrame(0), rs.DataFrame(1)}}
	mux := func() *RGBMultiplexer {
		m, err := NewRGBMultiplexer(p, video.Colorize{Src: video.Gray(l.FrameW, l.FrameH)}, data)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	into, fresh := mux(), mux()
	dst := frame.NewRGB(l.FrameW, l.FrameH)
	// One data cycle checked against FrameRGB; only its first video frame
	// loads.
	cycle := 2 * p.Tau
	k := 0
	for ; k < cycle; k++ {
		into.FrameRGBInto(k, dst)
		want := fresh.FrameRGB(k)
		for c, pair := range [][2][]float32{{dst.R, want.R}, {dst.G, want.G}, {dst.B, want.B}} {
			for j, w := range pair[1] {
				if math.Float32bits(pair[0][j]) != math.Float32bits(w) {
					t.Fatalf("frame %d channel %c pixel %d: FrameRGBInto %v, FrameRGB %v", k, "RGB"[c], j, pair[0][j], w)
				}
			}
		}
	}
	render := func() {
		into.FrameRGBInto(k, dst)
		k++
	}
	runs := 2 * cycle
	if allocs := testing.AllocsPerRun(runs, render); allocs > 5 {
		t.Errorf("a warm FrameRGBInto performs %.1f allocs per frame, want <= 5 (its fan-out closures)", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		render()
	}
	runtime.ReadMemStats(&after)
	plane := uint64(4 * l.FrameW * l.FrameH)
	perRun := (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
	t.Logf("warm FrameRGBInto: %.2f allocs, %d B per frame", float64(after.Mallocs-before.Mallocs)/float64(runs), perRun)
	if perRun > plane/64 {
		t.Errorf("a warm FrameRGBInto allocates %d B per frame, want < %d (one plane is %d B)", perRun, plane/64, plane)
	}
	defer func() {
		if recover() == nil {
			t.Error("FrameRGBInto accepted a frame of the wrong size")
		}
	}()
	into.FrameRGBInto(k, frame.NewRGB(l.FrameW+1, l.FrameH))
}
