package core

import (
	"math"
	"reflect"
	"testing"

	"inframe/internal/frame"
	"inframe/internal/video"
)

// idealCaptures renders n display frames and presents each one as a perfect
// capture (display resolution, no camera impairments) taken at its display
// time with a tiny exposure.
func idealCaptures(m *Multiplexer, n int) (caps []*frame.Frame, times []float64, exposure float64) {
	caps = m.Render(n)
	times = make([]float64, n)
	for i := range times {
		times[i] = float64(i) / 120
	}
	return caps, times, 1.0 / 120
}

func smallReceiver(t *testing.T, p Params) *Receiver {
	t.Helper()
	cfg := DefaultReceiverConfig(p, p.Layout.FrameW, p.Layout.FrameH)
	r, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestReceiverConfigValidate(t *testing.T) {
	p := smallParams()
	good := DefaultReceiverConfig(p, 48, 32)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*ReceiverConfig){
		func(c *ReceiverConfig) { c.CaptureW = 0 },
		func(c *ReceiverConfig) { c.Tau = 5 },
		func(c *ReceiverConfig) { c.RefreshHz = 0 },
		func(c *ReceiverConfig) { c.MinConfidence = -1 },
		func(c *ReceiverConfig) { c.SmoothRadius = 0 },
		func(c *ReceiverConfig) { c.Layout.BlocksX = 0 },
	}
	for i, m := range bad {
		c := DefaultReceiverConfig(p, 48, 32)
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestNewReceiverDegenerateRect(t *testing.T) {
	p := smallParams()
	cfg := DefaultReceiverConfig(p, 4, 3) // absurdly small capture
	if _, err := NewReceiver(cfg); err == nil {
		t.Fatal("accepted degenerate block rects")
	}
}

func TestMeasureCaptureSeparatesBits(t *testing.T) {
	p := smallParams()
	l := p.Layout
	df := NewDataFrame(l)
	// Half the blocks on, in a fixed pattern.
	for by := 0; by < l.BlocksY; by++ {
		for bx := 0; bx < l.BlocksX; bx++ {
			df.SetBit(bx, by, (bx+by)%2 == 0)
		}
	}
	m := newMux(t, p, video.Gray(l.FrameW, l.FrameH), &FixedStream{Frames: []*DataFrame{df}})
	r := smallReceiver(t, p)
	energies := r.MeasureCapture(m.Frame(0))
	for by := 0; by < l.BlocksY; by++ {
		for bx := 0; bx < l.BlocksX; bx++ {
			e := energies[by*l.BlocksX+bx]
			if df.Bit(bx, by) && e <= 2 {
				t.Fatalf("bit-1 block (%d,%d) energy %v, want > 2", bx, by, e)
			}
			if !df.Bit(bx, by) && e >= 0.5 {
				t.Fatalf("bit-0 block (%d,%d) energy %v, want ~0 on flat gray", bx, by, e)
			}
		}
	}
}

func TestMeasureCaptureSizeMismatchPanics(t *testing.T) {
	p := smallParams()
	r := smallReceiver(t, p)
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	r.MeasureCapture(frame.New(10, 10))
}

// TestDecideFrameParity: a legal data frame decided against per-Block levels
// leaves every GOB available and parity-clean; flipping one Block's energy
// to the other level makes exactly one GOB erroneous.
func TestDecideFrameParity(t *testing.T) {
	p := smallParams()
	r := smallReceiver(t, p)
	l := p.Layout
	n := l.NumBlocks()
	lo := make([]float64, n)
	hi := make([]float64, n)
	for j := range lo {
		lo[j], hi[j] = 1, 5
	}
	df := NewRandomStream(l, 3).DataFrame(0)
	scores := make([]float64, n)
	quality := make([]float64, n)
	for i, b := range df.Bits {
		scores[i] = lo[i]
		if b {
			scores[i] = hi[i]
		}
		quality[i] = 1
	}
	decide := func() *FrameDecode {
		a := newFrameAcc(n)
		a.add(scores, quality)
		return r.decideFrame(0, a, lo, hi)
	}
	fd := decide()
	if fd.AvailableGOBs() != l.NumGOBs() {
		t.Fatalf("available = %d, want all %d", fd.AvailableGOBs(), l.NumGOBs())
	}
	if fd.ErroneousGOBs() != 0 {
		t.Fatalf("erroneous = %d, want 0", fd.ErroneousGOBs())
	}
	if !fd.Bits.Equal(df) {
		t.Fatal("decoded bits differ from encoded")
	}
	// Flip one block's energy to the other level: its GOB becomes erroneous.
	scores[0] = lo[0] + hi[0] - scores[0]
	if got := decide().ErroneousGOBs(); got != 1 {
		t.Fatalf("erroneous after flip = %d, want 1", got)
	}
}

// TestEndToEndIdealChannel: multiplex random data over gray video, decode
// from perfect captures — every data frame must come back exactly.
func TestEndToEndIdealChannel(t *testing.T) {
	p := smallParams()
	p.Tau = 8
	l := p.Layout
	stream := NewRandomStream(l, 11)
	m := newMux(t, p, video.Gray(l.FrameW, l.FrameH), stream)
	// Enough frames that every Block carries both bit values several
	// times, so the per-Block level percentiles are learnable.
	nData := 24
	caps, times, exp := idealCaptures(m, nData*p.Tau)
	r := smallReceiver(t, p)
	decoded := r.DecodeCaptures(caps, times, exp, nData)
	if len(decoded) != nData {
		t.Fatalf("decoded %d frames", len(decoded))
	}
	for d, fd := range decoded {
		if fd.Captures == 0 {
			t.Fatalf("frame %d saw no captures", d)
		}
		if fd.AvailableGOBs() != l.NumGOBs() {
			t.Fatalf("frame %d: %d/%d GOBs available", d, fd.AvailableGOBs(), l.NumGOBs())
		}
		if fd.ErroneousGOBs() != 0 {
			t.Fatalf("frame %d: %d erroneous GOBs", d, fd.ErroneousGOBs())
		}
		if !fd.Bits.Equal(stream.DataFrame(d)) {
			t.Fatalf("frame %d bits mismatch", d)
		}
	}
}

// TestEndToEndTexturedVideo: on strongly textured content the energy
// detector still recovers most blocks on an ideal channel, because the
// per-Block calibration removes the static texture level; accuracy is
// allowed to dip but not collapse.
func TestEndToEndTexturedVideo(t *testing.T) {
	p := smallParams()
	p.Tau = 8
	l := p.Layout
	stream := NewRandomStream(l, 13)
	src := video.NewSunRise(l.FrameW, l.FrameH, 5)
	m := newMux(t, p, src, stream)
	nData := 12
	caps, times, exp := idealCaptures(m, nData*p.Tau)
	r := smallReceiver(t, p)
	decoded := r.DecodeCaptures(caps, times, exp, nData)
	correct, decided, total := 0, 0, 0
	for d, fd := range decoded {
		want := stream.DataFrame(d)
		for i := range want.Bits {
			total++
			if !fd.Decided[i] {
				continue
			}
			decided++
			if fd.Bits.Bits[i] == want.Bits[i] {
				correct++
			}
		}
	}
	// The tiny sun-rise is dominated by saturated sun/glare blocks, which
	// rightly come back undecided; of the blocks the receiver does commit
	// to, the vast majority must be correct.
	if frac := float64(decided) / float64(total); frac < 0.4 {
		t.Fatalf("decided fraction %.2f, want >= 0.4", frac)
	}
	// Saturated bit-1 blocks whose chessboard the clipping adjustment
	// crushed decode as zeros — the same effect behind the paper's ~21%
	// video GOB error rate — so accuracy well above chance, not
	// perfection, is the right bar here.
	acc := float64(correct) / float64(decided)
	if acc < 0.70 {
		t.Fatalf("textured-video decided-bit accuracy %.2f, want >= 0.70", acc)
	}
}

func TestDecodeCapturesNoCoverage(t *testing.T) {
	p := smallParams()
	r := smallReceiver(t, p)
	// One capture far outside any steady window of frames 0..2.
	f := frame.NewFilled(p.Layout.FrameW, p.Layout.FrameH, 127)
	decoded := r.DecodeCaptures([]*frame.Frame{f}, []float64{100}, 0.001, 2)
	for d, fd := range decoded {
		if fd.Captures != 0 {
			t.Fatalf("frame %d claims %d captures", d, fd.Captures)
		}
		if fd.AvailableGOBs() != 0 {
			t.Fatalf("frame %d has available GOBs without captures", d)
		}
	}
}

func TestDecodeCapturesLengthMismatchPanics(t *testing.T) {
	p := smallParams()
	r := smallReceiver(t, p)
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	r.DecodeCaptures(nil, []float64{1}, 0.01, 1)
}

func TestSteadyWindowLayout(t *testing.T) {
	p := smallParams()
	r := smallReceiver(t, p)
	period := r.DataFramePeriod()
	if math.Abs(period-float64(p.Tau)/120) > 1e-12 {
		t.Fatalf("period = %v", period)
	}
	exp := 0.004
	t0, t1 := r.steadyWindow(3, exp)
	if t0 < float64(3*period)+float64(exp/2)-1e-12 || t1 > float64(3.5*period)-float64(exp/2)+1e-12 {
		t.Fatalf("steady window [%v,%v] outside expectations", t0, t1)
	}
	// Over-long exposure degrades to a point at the quarter period.
	p0, p1 := r.steadyWindow(0, period)
	if p0 != p1 || p0 != period/4 {
		t.Fatalf("degenerate window [%v,%v], want point at %v", p0, p1, period/4)
	}
}

func TestMatchedDetectorOutperformsEnergyOnTexture(t *testing.T) {
	p := smallParams()
	p.Tau = 8
	l := p.Layout
	stream := NewRandomStream(l, 17)
	src := video.NewNoise(l.FrameW, l.FrameH, 60, 200, 9)
	frozen := video.Record(src, 4)
	m := newMux(t, p, frozen, stream)
	nData := 12
	caps, times, exp := idealCaptures(m, nData*p.Tau)

	accuracy := func(det Detector) float64 {
		cfg := DefaultReceiverConfig(p, l.FrameW, l.FrameH)
		cfg.Detector = det
		r, err := NewReceiver(cfg)
		if err != nil {
			t.Fatal(err)
		}
		decoded := r.DecodeCaptures(caps, times, exp, nData)
		correct, total := 0, 0
		for d, fd := range decoded {
			want := stream.DataFrame(d)
			for i := range want.Bits {
				total++
				if fd.Bits.Bits[i] == want.Bits[i] {
					correct++
				}
			}
		}
		return float64(correct) / float64(total)
	}
	aEnergy := accuracy(DetectorEnergy)
	aMatched := accuracy(DetectorMatched)
	if aMatched < aEnergy {
		t.Fatalf("matched %.3f worse than energy %.3f on noise video", aMatched, aEnergy)
	}
	// i.i.d. full-range *changing* noise is far harsher than any real
	// video (the temporal baseline cannot track it); the matched filter
	// should still beat coin flipping by a wide margin.
	if aMatched < 0.7 {
		t.Fatalf("matched detector accuracy %.3f on noise video, want >= 0.7", aMatched)
	}
}

func TestDetectorString(t *testing.T) {
	if DetectorEnergy.String() != "energy" || DetectorMatched.String() != "matched" {
		t.Fatal("detector names wrong")
	}
	if Detector(7).String() != "Detector(7)" {
		t.Fatal("unknown detector name wrong")
	}
}

// TestNonFiniteTimingIsUnscheduled: timing the receiver cannot place selects
// nothing, in both decode drivers. A capture stamped NaN or ±Inf is left
// unscored and the decode equals the decode without it — in particular a
// push at t = +Inf returns nil at once instead of emitting empty decodes
// forever, and the next finite push emits from the same index. Under a NaN,
// +Inf or negative exposure (whose steady windows would be undefined or
// overlap) no capture is scored and every frame is an empty decode.
func TestNonFiniteTimingIsUnscheduled(t *testing.T) {
	p := smallParams()
	l := p.Layout
	m := newMux(t, p, video.Gray(l.FrameW, l.FrameH), NewRandomStream(l, 5))
	nData := 10
	caps, times, exp := idealCaptures(m, nData*p.Tau)
	r := smallReceiver(t, p)
	stream := func(caps []*frame.Frame, times []float64, exposure float64) []*FrameDecode {
		sr, err := NewStreamingReceiver(r.Config(), 8)
		if err != nil {
			t.Fatal(err)
		}
		var out []*FrameDecode
		for i := range caps {
			got := sr.Push(caps[i], times[i], exposure)
			if got != nil && (math.IsNaN(times[i]) || math.IsInf(times[i], 0)) {
				t.Fatalf("push at t=%v emitted %d frames, want nil", times[i], len(got))
			}
			out = append(out, got...)
		}
		return out
	}

	k := 5*p.Tau + 1 // a capture inside frame 5's steady window
	without := func(s []float64) []float64 { return append(append([]float64{}, s[:k]...), s[k+1:]...) }
	capsWithout := append(append([]*frame.Frame{}, caps[:k]...), caps[k+1:]...)
	wantBatch, _ := r.DecodeCapturesReport(capsWithout, without(times), exp, nData)
	wantStream := stream(capsWithout, without(times), exp)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bt := append([]float64{}, times...)
		bt[k] = bad
		got, rep := r.DecodeCapturesReport(caps, bt, exp, nData)
		if rep.Quality[k].Scored {
			t.Fatalf("capture at t=%v scored", bad)
		}
		if !reflect.DeepEqual(got, wantBatch) {
			t.Fatalf("batch: a capture at t=%v changed the decode", bad)
		}
		if !reflect.DeepEqual(stream(caps, bt, exp), wantStream) {
			t.Fatalf("streaming: a capture at t=%v changed the decode", bad)
		}
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), -exp} {
		got, rep := r.DecodeCapturesReport(caps, times, bad, nData)
		for i, q := range rep.Quality {
			if q.Scored {
				t.Fatalf("exposure %v: capture %d scored", bad, i)
			}
		}
		for d, fd := range got {
			if !reflect.DeepEqual(fd, r.emptyDecode(d)) {
				t.Fatalf("exposure %v: batch frame %d is not an empty decode (%d captures)", bad, d, fd.Captures)
			}
		}
		out := stream(caps, times, bad)
		if len(out) == 0 {
			t.Fatalf("exposure %v: the stream emitted nothing", bad)
		}
		for i, fd := range out {
			if fd.Index != i || !reflect.DeepEqual(fd, r.emptyDecode(i)) {
				t.Fatalf("exposure %v: stream frame %d (index %d) is not an empty decode (%d captures)", bad, i, fd.Index, fd.Captures)
			}
		}
	}
}
