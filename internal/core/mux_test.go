package core

import (
	"math"
	"testing"

	"inframe/internal/frame"
	"inframe/internal/video"
	"inframe/internal/waveform"
)

func smallParams() Params {
	p := DefaultParams(smallLayout())
	p.Tau = 8
	return p
}

func constStream(l Layout, set func(*DataFrame)) Stream {
	df := NewDataFrame(l)
	if set != nil {
		set(df)
	}
	return &FixedStream{Frames: []*DataFrame{df}}
}

func newMux(t *testing.T, p Params, src video.Source, data Stream) *Multiplexer {
	t.Helper()
	m, err := NewMultiplexer(p, src, data)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams(PaperLayout()).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Params){
		func(p *Params) { p.Delta = 0 },
		func(p *Params) { p.Delta = 200 },
		func(p *Params) { p.Delta = math.NaN() },
		func(p *Params) { p.Tau = 7 },
		func(p *Params) { p.Tau = 0 },
		func(p *Params) { p.VideoFrameRatio = 0 },
		func(p *Params) { p.Layout.BlocksX = 0 },
	}
	for i, m := range bad {
		p := DefaultParams(PaperLayout())
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d validated", i)
		}
	}
}

func TestNewMultiplexerSizeCheck(t *testing.T) {
	p := smallParams()
	if _, err := NewMultiplexer(p, video.Gray(10, 10), constStream(p.Layout, nil)); err == nil {
		t.Fatal("accepted mismatched video size")
	}
}

// TestComplementaryPairsFuseToVideo: the defining InFrame property — for any
// steady data frame, consecutive displayed frames average back to the video.
func TestComplementaryPairsFuseToVideo(t *testing.T) {
	p := smallParams()
	src := video.Gray(p.Layout.FrameW, p.Layout.FrameH)
	ones := constStream(p.Layout, func(df *DataFrame) {
		for i := range df.Bits {
			df.Bits[i] = true
		}
	})
	m := newMux(t, p, src, ones)
	f0 := m.Frame(0)
	f1 := m.Frame(1)
	avg, err := frame.Average(f0, f1)
	if err != nil {
		t.Fatal(err)
	}
	orig := src.Frame(0)
	mae, _ := frame.MAE(avg, orig)
	if mae > 1e-4 {
		t.Fatalf("pair average deviates from video by %v", mae)
	}
	// And the individual frames do carry the pattern.
	d, _ := frame.MAE(f0, orig)
	if d < 5 {
		t.Fatalf("multiplexed frame deviates only %v from video; no data embedded?", d)
	}
}

func TestZeroBitsLeaveVideoUntouched(t *testing.T) {
	p := smallParams()
	src := video.Gray(p.Layout.FrameW, p.Layout.FrameH)
	m := newMux(t, p, src, constStream(p.Layout, nil))
	for k := 0; k < 4; k++ {
		if !m.Frame(k).Equal(src.Frame(0)) {
			t.Fatalf("frame %d altered despite all-zero data", k)
		}
	}
}

func TestChessboardGeometry(t *testing.T) {
	p := smallParams()
	src := video.Gray(p.Layout.FrameW, p.Layout.FrameH)
	ones := constStream(p.Layout, func(df *DataFrame) {
		for i := range df.Bits {
			df.Bits[i] = true
		}
	})
	m := newMux(t, p, src, ones)
	f := m.Frame(0) // even frame: +D
	l := p.Layout
	ps := l.PixelSize
	x0, y0, w, h := l.BlockRect(1, 1)
	for y := y0; y < y0+h; y++ {
		for x := x0; x < x0+w; x++ {
			want := float32(180)
			if ChessOn(x/ps, y/ps) {
				want = 180 + float32(p.Delta)
			}
			if got := f.At(x, y); got != want {
				t.Fatalf("pixel (%d,%d) = %v, want %v", x, y, got, want)
			}
		}
	}
	// Odd frame: −D on the same pixels.
	f1 := m.Frame(1)
	for y := y0; y < y0+h; y++ {
		for x := x0; x < x0+w; x++ {
			want := float32(180)
			if ChessOn(x/ps, y/ps) {
				want = 180 - float32(p.Delta)
			}
			if got := f1.At(x, y); got != want {
				t.Fatalf("odd pixel (%d,%d) = %v, want %v", x, y, got, want)
			}
		}
	}
}

func TestElementPixelsShareValue(t *testing.T) {
	// All p×p Element pixels of one Pixel carry the same value.
	p := smallParams()
	src := video.Gray(p.Layout.FrameW, p.Layout.FrameH)
	ones := constStream(p.Layout, func(df *DataFrame) {
		for i := range df.Bits {
			df.Bits[i] = true
		}
	})
	m := newMux(t, p, src, ones)
	f := m.Frame(0)
	ps := p.Layout.PixelSize
	x0, y0, w, h := p.Layout.BlockRect(0, 0)
	for py := y0 / ps; py < (y0+h)/ps; py++ {
		for px := x0 / ps; px < (x0+w)/ps; px++ {
			ref := f.At(px*ps, py*ps)
			for dy := 0; dy < ps; dy++ {
				for dx := 0; dx < ps; dx++ {
					if f.At(px*ps+dx, py*ps+dy) != ref {
						t.Fatalf("Pixel (%d,%d) has non-uniform elements", px, py)
					}
				}
			}
		}
	}
}

func TestMarginsUntouched(t *testing.T) {
	l := Layout{FrameW: 64, FrameH: 40, PixelSize: 2, BlockSize: 4, GOBSize: 2, BlocksX: 6, BlocksY: 4}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(l)
	p.Tau = 8
	src := video.Gray(l.FrameW, l.FrameH)
	ones := constStream(l, func(df *DataFrame) {
		for i := range df.Bits {
			df.Bits[i] = true
		}
	})
	m := newMux(t, p, src, ones)
	f := m.Frame(0)
	if l.MarginX() == 0 || l.MarginY() == 0 {
		t.Fatal("test layout should have margins")
	}
	for x := 0; x < l.MarginX(); x++ {
		for y := 0; y < l.FrameH; y++ {
			if f.At(x, y) != 180 {
				t.Fatalf("margin pixel (%d,%d) altered", x, y)
			}
		}
	}
}

// TestSmoothingEnvelope: across a 1→0 transition, the block amplitude stays
// steady for the first τ/2 frames of the period, then decays monotonically.
func TestSmoothingEnvelope(t *testing.T) {
	p := smallParams()
	p.Tau = 8
	l := p.Layout
	a := NewDataFrame(l)
	for i := range a.Bits {
		a.Bits[i] = true
	}
	b := NewDataFrame(l) // zeros
	m := newMux(t, p, video.Gray(l.FrameW, l.FrameH),
		&FixedStream{Frames: []*DataFrame{a, b}})
	// Find a chessboard-on pixel of block (0,0).
	x0, y0, _, _ := l.BlockRect(0, 0)
	px, py := -1, -1
	for dy := 0; dy < l.BlockPx() && px < 0; dy++ {
		for dx := 0; dx < l.BlockPx(); dx++ {
			if ChessOn((x0+dx)/l.PixelSize, (y0+dy)/l.PixelSize) {
				px, py = x0+dx, y0+dy
				break
			}
		}
	}
	amps := make([]float64, p.Tau)
	for k := 0; k < p.Tau; k++ {
		amps[k] = math.Abs(float64(m.Frame(k).At(px, py)) - 180)
	}
	for k := 0; k < p.Tau/2; k++ {
		if math.Abs(amps[k]-p.Delta) > 1e-4 {
			t.Fatalf("steady frame %d amplitude %v, want %v", k, amps[k], p.Delta)
		}
	}
	for k := p.Tau / 2; k < p.Tau-1; k++ {
		if amps[k+1] > amps[k]+1e-9 {
			t.Fatalf("transition not monotone at %d: %v -> %v", k, amps[k], amps[k+1])
		}
	}
	if amps[p.Tau-1] > 1e-6 {
		t.Fatalf("end-of-transition amplitude %v, want 0", amps[p.Tau-1])
	}
	// Next period (data frame 1, all zeros): untouched video.
	if !m.Frame(p.Tau).Equal(video.Gray(l.FrameW, l.FrameH).Frame(0)) {
		t.Fatal("zero period altered")
	}
}

func TestNoTransitionWhenBitsEqual(t *testing.T) {
	p := smallParams()
	l := p.Layout
	ones := constStream(l, func(df *DataFrame) {
		for i := range df.Bits {
			df.Bits[i] = true
		}
	})
	m := newMux(t, p, video.Gray(l.FrameW, l.FrameH), ones)
	// Every even frame identical across periods.
	if !m.Frame(0).Equal(m.Frame(p.Tau)) {
		t.Fatal("steady bits should repeat identically across periods")
	}
	if !m.Frame(p.Tau - 2).Equal(m.Frame(0)) {
		t.Fatal("no transition should occur when bits are equal")
	}
}

// TestClippingAdjustment: near-white video forces the local amplitude down
// so no pixel exceeds 255, and near-black symmetric.
func TestClippingAdjustment(t *testing.T) {
	p := smallParams()
	l := p.Layout
	ones := constStream(l, func(df *DataFrame) {
		for i := range df.Bits {
			df.Bits[i] = true
		}
	})
	bright := video.NewSolid(l.FrameW, l.FrameH, 250) // headroom 5 < δ=20
	m := newMux(t, p, bright, ones)
	f0, f1 := m.Frame(0), m.Frame(1)
	min0, max0 := f0.MinMax()
	if max0 > 255 || min0 < 0 {
		t.Fatalf("clipped frame out of range [%v,%v]", min0, max0)
	}
	// The pair must still fuse exactly: amplitude reduced, not clipped.
	avg, _ := frame.Average(f0, f1)
	mae, _ := frame.MAE(avg, bright.Frame(0))
	if mae > 1e-4 {
		t.Fatalf("bright pair fuses with error %v", mae)
	}
	// Amplitude is the available headroom (5), not δ.
	x0, y0, _, _ := l.BlockRect(0, 0)
	var seen float64
	for dy := 0; dy < l.BlockPx(); dy++ {
		for dx := 0; dx < l.BlockPx(); dx++ {
			d := math.Abs(float64(f0.At(x0+dx, y0+dy)) - 250)
			if d > seen {
				seen = d
			}
		}
	}
	if math.Abs(seen-5) > 1e-4 {
		t.Fatalf("bright-area amplitude %v, want headroom 5", seen)
	}

	dark := video.NewSolid(l.FrameW, l.FrameH, 2)
	m2 := newMux(t, p, dark, ones)
	g0 := m2.Frame(1) // −D frame is the dangerous one near black
	minG, _ := g0.MinMax()
	if minG < 0 {
		t.Fatalf("dark frame went negative: %v", minG)
	}
}

func TestVideoFrameRatio(t *testing.T) {
	p := smallParams()
	p.VideoFrameRatio = 4
	l := p.Layout
	src := video.NewMovingBars(l.FrameW, l.FrameH, 8, 2)
	m := newMux(t, p, src, constStream(l, nil))
	// Frames 0..3 use video frame 0; frame 4 uses video frame 1.
	if !m.Frame(0).Equal(m.Frame(2)) {
		t.Fatal("display frames within one video frame differ (zero data)")
	}
	if m.Frame(3).Equal(m.Frame(4)) {
		t.Fatal("video frame did not advance after VideoFrameRatio frames")
	}
}

func TestRenderAndPushTo(t *testing.T) {
	p := smallParams()
	l := p.Layout
	m := newMux(t, p, video.Gray(l.FrameW, l.FrameH), constStream(l, nil))
	frames := m.Render(6)
	if len(frames) != 6 {
		t.Fatalf("Render returned %d frames", len(frames))
	}
	if m.DataFrameIndex(0) != 0 || m.DataFrameIndex(p.Tau) != 1 {
		t.Fatal("DataFrameIndex wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative frame index did not panic")
		}
	}()
	m.Frame(-1)
}

func TestStairShapeJumpsAtMidpoint(t *testing.T) {
	p := smallParams()
	p.Shape = waveform.Stair
	p.Tau = 8
	l := p.Layout
	a := NewDataFrame(l)
	for i := range a.Bits {
		a.Bits[i] = true
	}
	m := newMux(t, p, video.Gray(l.FrameW, l.FrameH),
		&FixedStream{Frames: []*DataFrame{a, NewDataFrame(l)}})
	x0, y0, _, _ := l.BlockRect(0, 0)
	px, py := x0, y0
	for ChessOn(px/l.PixelSize, py/l.PixelSize) == false {
		px++
	}
	amp := func(k int) float64 { return math.Abs(float64(m.Frame(k).At(px, py)) - 180) }
	// Stair: amplitude δ until the second half's midpoint, then 0.
	if amp(4) != p.Delta {
		t.Fatalf("stair early transition amplitude %v, want δ", amp(4))
	}
	if amp(7) != 0 {
		t.Fatalf("stair end amplitude %v, want 0", amp(7))
	}
}
