package core

import (
	"math"
	"reflect"
	"testing"

	"inframe/internal/frame"
	"inframe/internal/video"
)

func TestErasureCauseString(t *testing.T) {
	want := map[ErasureCause]string{
		CauseNone:          "ok",
		CauseParity:        "parity",
		CauseLowConfidence: "low-confidence",
		CauseNoSwing:       "no-swing",
		CauseNoSignal:      "no-signal",
		CauseNoCapture:     "no-capture",
		ErasureCause(42):   "unknown",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("ErasureCause(%d).String() = %q, want %q", c, c.String(), s)
		}
	}
	if NumErasureCauses != 6 {
		t.Fatalf("NumErasureCauses = %d, want 6", NumErasureCauses)
	}
}

func TestEmptyDecodeAllNoCapture(t *testing.T) {
	p := smallParams()
	r := smallReceiver(t, p)
	fd := r.emptyDecode(3)
	if fd.Index != 3 || fd.Captures != 0 {
		t.Fatalf("empty decode index/captures = %d/%d", fd.Index, fd.Captures)
	}
	for j, c := range fd.BlockCauses {
		if c != CauseNoCapture {
			t.Fatalf("block %d cause %v, want no-capture", j, c)
		}
	}
	for _, g := range fd.GOBs {
		if g.Available || g.Cause != CauseNoCapture {
			t.Fatalf("GOB (%d,%d) = %+v, want unavailable no-capture", g.GX, g.GY, g)
		}
	}
}

// TestDecodeCapturesReportIdealChannel: on a clean channel the report's
// frames are the exact DecodeCaptures output, every capture is scored and
// used, and the cause tally is all CauseNone.
func TestDecodeCapturesReportIdealChannel(t *testing.T) {
	p := smallParams()
	l := p.Layout
	stream := NewRandomStream(l, 11)
	m := newMux(t, p, video.Gray(l.FrameW, l.FrameH), stream)
	nData := 24
	caps, times, exp := idealCaptures(m, nData*p.Tau)
	r := smallReceiver(t, p)
	plain := r.DecodeCaptures(caps, times, exp, nData)
	decoded, rep := r.DecodeCapturesReport(caps, times, exp, nData)
	if !reflect.DeepEqual(plain, decoded) {
		t.Fatal("report decode differs from plain decode")
	}
	if len(rep.Quality) != len(caps) {
		t.Fatalf("quality timeline has %d entries, want %d", len(rep.Quality), len(caps))
	}
	scored := 0
	for i, q := range rep.Quality {
		if q.Index != i {
			t.Fatalf("quality entry %d has index %d", i, q.Index)
		}
		// Captures whose mid-exposure falls in the inverted half of the
		// data-frame period are legitimately unscored; the interior
		// steady-window captures must all be scored+used. Capture τ/2−1 of
		// each frame sits exactly on the window edge, where float rounding
		// legitimately decides either way.
		switch phase := i % p.Tau; {
		case phase < p.Tau/2-1:
			if !q.Scored || !q.Used || q.Excluded {
				t.Fatalf("capture %d: scored=%v used=%v excluded=%v on an ideal channel",
					i, q.Scored, q.Used, q.Excluded)
			}
			if q.Quality <= 0 || q.Quality > 1 {
				t.Fatalf("capture %d quality %v outside (0,1]", i, q.Quality)
			}
			scored++
		case phase >= p.Tau/2:
			if q.Scored || q.Used {
				t.Fatalf("out-of-window capture %d was scored", i)
			}
		}
	}
	if want := nData * (p.Tau/2 - 1); scored != want {
		t.Fatalf("scored %d interior captures, want %d", scored, want)
	}
	if rep.GapFrames != 0 || rep.Resyncs != 0 || rep.ExcludedCaptures != 0 {
		t.Fatalf("gaps=%d resyncs=%d excluded=%d on an ideal channel",
			rep.GapFrames, rep.Resyncs, rep.ExcludedCaptures)
	}
	counts := rep.CauseCounts()
	if counts[CauseNone] != nData*l.NumGOBs() {
		t.Fatalf("delivered GOBs = %d, want %d", counts[CauseNone], nData*l.NumGOBs())
	}
	for c := CauseParity; c < ErasureCause(NumErasureCauses); c++ {
		if counts[c] != 0 {
			t.Fatalf("cause %v count = %d on an ideal channel", c, counts[c])
		}
	}
	avail := rep.GOBAvailability()
	if len(avail) != l.NumGOBs() {
		t.Fatalf("availability map has %d GOBs, want %d", len(avail), l.NumGOBs())
	}
	for i, a := range avail {
		if math.Abs(a-1) > 0 {
			t.Fatalf("GOB %d availability %v, want 1", i, a)
		}
	}
	if rep.MeanQuality() <= 0 || rep.MinQuality() <= 0 {
		t.Fatalf("mean/min quality %v/%v, want positive", rep.MeanQuality(), rep.MinQuality())
	}
}

// TestDecodeReportGapsAndResyncs: removing the captures of one data frame in
// the middle of the run produces a gap frame (all GOBs CauseNoCapture) and
// one resync when decoding resumes.
func TestDecodeReportGapsAndResyncs(t *testing.T) {
	p := smallParams()
	l := p.Layout
	stream := NewRandomStream(l, 11)
	m := newMux(t, p, video.Gray(l.FrameW, l.FrameH), stream)
	nData := 24
	caps, times, exp := idealCaptures(m, nData*p.Tau)
	// Drop every capture that observes data frame 5 (τ display frames).
	gap := 5
	keptCaps := make([]*frame.Frame, 0, len(caps))
	keptTimes := make([]float64, 0, len(times))
	for i := range caps {
		if i/p.Tau == gap {
			continue
		}
		keptCaps = append(keptCaps, caps[i])
		keptTimes = append(keptTimes, times[i])
	}
	r := smallReceiver(t, p)
	decoded, rep := r.DecodeCapturesReport(keptCaps, keptTimes, exp, nData)
	if rep.GapFrames != 1 || rep.Resyncs != 1 {
		t.Fatalf("gaps=%d resyncs=%d, want 1/1", rep.GapFrames, rep.Resyncs)
	}
	fd := decoded[gap]
	if fd.Captures != 0 {
		t.Fatalf("gap frame saw %d captures", fd.Captures)
	}
	for _, g := range fd.GOBs {
		if g.Cause != CauseNoCapture {
			t.Fatalf("gap frame GOB cause %v, want no-capture", g.Cause)
		}
	}
	counts := rep.CauseCounts()
	if counts[CauseNoCapture] != l.NumGOBs() {
		t.Fatalf("no-capture tally = %d, want %d", counts[CauseNoCapture], l.NumGOBs())
	}
	// Neighbouring frames still decode in full.
	for _, d := range []int{gap - 1, gap + 1} {
		if decoded[d].AvailableGOBs() != l.NumGOBs() {
			t.Fatalf("frame %d lost GOBs to the gap", d)
		}
	}
	avail := rep.GOBAvailability()
	wantRatio := float64(nData-1) / float64(nData)
	for i, a := range avail {
		if math.Abs(a-wantRatio) > 1e-12 {
			t.Fatalf("GOB %d availability %v, want %v", i, a, wantRatio)
		}
	}
}

// TestMinCaptureQualityGating: a clipped garbage capture inside a steady
// window is excluded by the gate, leaving the decode bit-identical to the
// clean sequence; without the gate it is used (and scored near zero).
func TestMinCaptureQualityGating(t *testing.T) {
	p := smallParams()
	l := p.Layout
	stream := NewRandomStream(l, 11)
	m := newMux(t, p, video.Gray(l.FrameW, l.FrameH), stream)
	nData := 24
	caps, times, exp := idealCaptures(m, nData*p.Tau)
	// Splice an all-black (fully clipped) capture into data frame 7's
	// steady window, after the genuine captures so the aggregation order of
	// the clean prefix is unchanged.
	garbage := frame.NewFilled(l.FrameW, l.FrameH, 0)
	gt := times[7*p.Tau] + float64(exp/4)
	polluted := append(append([]*frame.Frame{}, caps...), garbage)
	pollutedTimes := append(append([]float64{}, times...), gt)

	cfg := DefaultReceiverConfig(p, l.FrameW, l.FrameH)
	cfg.MinCaptureQuality = 0.2
	gated, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clean := smallReceiver(t, p)

	want := clean.DecodeCaptures(caps, times, exp, nData)
	got, rep := gated.DecodeCapturesReport(polluted, pollutedTimes, exp, nData)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("gated decode of polluted sequence differs from clean decode")
	}
	if rep.ExcludedCaptures != 1 {
		t.Fatalf("excluded = %d, want 1", rep.ExcludedCaptures)
	}
	last := rep.Quality[len(rep.Quality)-1]
	if !last.Scored || !last.Excluded || last.Used {
		t.Fatalf("garbage capture entry = %+v, want scored+excluded", last)
	}
	if last.Quality >= 0.2 {
		t.Fatalf("garbage capture quality %v, want < 0.2", last.Quality)
	}
	// Gate off: the garbage capture is scored but used.
	_, rep2 := clean.DecodeCapturesReport(polluted, pollutedTimes, exp, nData)
	last2 := rep2.Quality[len(rep2.Quality)-1]
	if !last2.Used || last2.Excluded || rep2.ExcludedCaptures != 0 {
		t.Fatalf("ungated garbage entry = %+v (excluded=%d), want used", last2, rep2.ExcludedCaptures)
	}
}

// TestRecalibrateEveryWindows: RecalibrateEvery=0 and a window spanning the
// whole run are bit-identical, and a genuinely windowed calibration still
// decodes an ideal channel in full.
func TestRecalibrateEveryWindows(t *testing.T) {
	p := smallParams()
	l := p.Layout
	stream := NewRandomStream(l, 11)
	m := newMux(t, p, video.Gray(l.FrameW, l.FrameH), stream)
	nData := 24
	caps, times, exp := idealCaptures(m, nData*p.Tau)

	decodeWith := func(every int) []*FrameDecode {
		cfg := DefaultReceiverConfig(p, l.FrameW, l.FrameH)
		cfg.RecalibrateEvery = every
		r, err := NewReceiver(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.DecodeCaptures(caps, times, exp, nData)
	}
	whole := decodeWith(0)
	if !reflect.DeepEqual(whole, decodeWith(nData)) {
		t.Fatal("whole-run window differs from RecalibrateEvery=0")
	}
	if !reflect.DeepEqual(whole, decodeWith(10*nData)) {
		t.Fatal("over-long window differs from RecalibrateEvery=0")
	}
	// Shorter windows starve the percentile estimates slightly, so demand
	// near-full (not perfect) availability — and zero confident errors.
	avail, total := 0, 0
	for d, fd := range decodeWith(nData / 2) {
		avail += fd.AvailableGOBs()
		total += l.NumGOBs()
		want := stream.DataFrame(d)
		for j, decided := range fd.Decided {
			if decided && fd.Bits.Bits[j] != want.Bits[j] {
				t.Fatalf("windowed decode frame %d block %d: confident wrong bit", d, j)
			}
		}
	}
	// 12-frame windows give each Block only ~6 samples per bit level, so a
	// fraction of GOBs rightly come back no-swing; most must still deliver.
	if ratio := float64(avail) / float64(total); ratio < 0.75 {
		t.Fatalf("windowed availability %.2f, want >= 0.75", ratio)
	}
}

// TestBuildGOBsCauses: the GOB aggregation reports the worst cause among a
// GOB's Blocks, CauseParity on confident-but-wrong groups, and falls back to
// low-confidence when no per-Block causes were recorded.
func TestBuildGOBsCauses(t *testing.T) {
	l := smallLayout()
	nBlocks := l.NumBlocks()
	mk := func() *FrameDecode {
		fd := &FrameDecode{
			Bits:        NewDataFrame(l),
			Decided:     make([]bool, nBlocks),
			BlockCauses: make([]ErasureCause, nBlocks),
		}
		for j := range fd.Decided {
			fd.Decided[j] = true
		}
		return fd
	}
	// All decided, all-zero bits: every GOB's XOR parity holds.
	fd := mk()
	buildGOBs(fd, l)
	for _, g := range fd.GOBs {
		if !g.Available || !g.ParityOK || g.Cause != CauseNone {
			t.Fatalf("clean GOB = %+v", g)
		}
	}
	// Flip one data bit of GOB (0,0): confident wrong group → CauseParity.
	fd = mk()
	blk := l.GOBBlocks(0, 0)[0]
	fd.Bits.SetBit(blk[0], blk[1], true)
	buildGOBs(fd, l)
	if g := fd.GOBs[0]; !g.Available || g.ParityOK || g.Cause != CauseParity {
		t.Fatalf("parity-failed GOB = %+v", g)
	}
	// Two undecided Blocks in one GOB with different causes: the worst wins.
	fd = mk()
	blks := l.GOBBlocks(0, 0)
	j0 := blks[0][1]*l.BlocksX + blks[0][0]
	j1 := blks[1][1]*l.BlocksX + blks[1][0]
	fd.Decided[j0] = false
	fd.BlockCauses[j0] = CauseLowConfidence
	fd.Decided[j1] = false
	fd.BlockCauses[j1] = CauseNoSignal
	buildGOBs(fd, l)
	if g := fd.GOBs[0]; g.Available || g.Cause != CauseNoSignal {
		t.Fatalf("mixed-cause GOB = %+v, want worst cause no-signal", g)
	}
	// Legacy callers without BlockCauses degrade to low-confidence.
	fd = mk()
	fd.BlockCauses = nil
	fd.Decided[j0] = false
	buildGOBs(fd, l)
	if g := fd.GOBs[0]; g.Available || g.Cause != CauseLowConfidence {
		t.Fatalf("nil-causes GOB = %+v, want low-confidence", g)
	}
}

// TestLinkQuality: clean mid-gray captures score high, a fully clipped frame
// scores zero, and the score never leaves [0, 1].
func TestLinkQuality(t *testing.T) {
	p := smallParams()
	l := p.Layout
	r := smallReceiver(t, p)
	gray := frame.NewFilled(l.FrameW, l.FrameH, 127)
	scores, quality := r.MeasureCaptureAt(gray, 0)
	q := r.linkQuality(gray, scores, quality)
	if q <= 0.9 || q > 1 {
		t.Fatalf("mid-gray link quality %v, want ~1", q)
	}
	black := frame.NewFilled(l.FrameW, l.FrameH, 0)
	scores, quality = r.MeasureCaptureAt(black, 0)
	// The clipped-frame score is exactly zeroed by the clip factor.
	if q := r.linkQuality(black, scores, quality); q != 0 {
		t.Fatalf("all-black link quality %v, want 0", q)
	}
	// Half the frame saturated: quality degrades roughly with the clipped
	// fraction but stays inside [0, 1].
	half := frame.NewFilled(l.FrameW, l.FrameH, 127)
	for i := 0; i < len(half.Pix)/2; i++ {
		half.Pix[i] = 255
	}
	scores, quality = r.MeasureCaptureAt(half, 0)
	if q := r.linkQuality(half, scores, quality); q <= 0 || q >= 0.8 {
		t.Fatalf("half-clipped link quality %v, want in (0, 0.8)", q)
	}
}

func TestDecodeReportEmpty(t *testing.T) {
	rep := &DecodeReport{}
	if rep.GOBAvailability() != nil {
		t.Fatal("empty report returned an availability map")
	}
	// Empty-report sentinels are exact.
	if rep.MeanQuality() != 0 || !math.IsInf(rep.MinQuality(), 1) {
		t.Fatalf("empty report mean/min = %v/%v", rep.MeanQuality(), rep.MinQuality())
	}
}

// TestFrameDecodeAllocs pins the decision stage's allocations: a decided
// frame and a gap frame each allocate only their FrameDecode — the struct,
// its DataFrame and bit slice, the Decided, BlockCauses and GOB slices —
// however many GOBs the layout has, because the GOB summary and the parity
// check walk each GOB's Blocks in place.
func TestFrameDecodeAllocs(t *testing.T) {
	const want = 6
	p := smallParams()
	r := smallReceiver(t, p)
	n := p.Layout.NumBlocks()
	scores, quality := make([]float64, n), make([]float64, n)
	lo, hi := make([]float64, n), make([]float64, n)
	for j := range scores {
		scores[j] = float64(100 * (j % 2))
		quality[j] = 1
		hi[j] = 100
	}
	a := newFrameAcc(n)
	a.add(scores, quality)
	if fd := r.decideFrame(0, a, lo, hi); fd.AvailableGOBs() != p.Layout.NumGOBs() {
		t.Fatalf("%d of %d GOBs available; every GOB must reach the parity check", fd.AvailableGOBs(), p.Layout.NumGOBs())
	}
	if got := testing.AllocsPerRun(20, func() { r.decideFrame(0, a, lo, hi) }); got > want {
		t.Errorf("decideFrame allocates %v times per frame, want %d", got, want)
	}
	if got := testing.AllocsPerRun(20, func() { r.emptyDecode(0) }); got > want {
		t.Errorf("emptyDecode allocates %v times per frame, want %d", got, want)
	}
}
