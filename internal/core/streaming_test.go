package core

import (
	"reflect"
	"testing"

	"inframe/internal/frame"
	"inframe/internal/video"
)

func TestNewStreamingReceiverValidation(t *testing.T) {
	p := smallParams()
	cfg := DefaultReceiverConfig(p, p.Layout.FrameW, p.Layout.FrameH)
	if _, err := NewStreamingReceiver(cfg, 2); err == nil {
		t.Fatal("tiny window accepted")
	}
	bad := cfg
	bad.CaptureW = 0
	if _, err := NewStreamingReceiver(bad, 16); err == nil {
		t.Fatal("bad receiver config accepted")
	}
	sr, err := NewStreamingReceiver(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Receiver() == nil {
		t.Fatal("wrapped receiver missing")
	}
}

// TestStreamingMatchesBatchOnIdealChannel: pushing ideal captures one at a
// time yields the same payload bits the batch decoder recovers.
func TestStreamingMatchesBatchOnIdealChannel(t *testing.T) {
	p := smallParams()
	p.Tau = 8
	l := p.Layout
	stream := NewRandomStream(l, 11)
	m := newMux(t, p, video.Gray(l.FrameW, l.FrameH), stream)
	nData := 30
	caps, times, exp := idealCaptures(m, nData*p.Tau)

	cfg := DefaultReceiverConfig(p, l.FrameW, l.FrameH)
	sr, err := NewStreamingReceiver(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	var emitted []*FrameDecode
	for i := range caps {
		emitted = append(emitted, sr.Push(caps[i], times[i], exp)...)
	}
	if len(emitted) < nData-2 {
		t.Fatalf("emitted only %d of %d frames", len(emitted), nData)
	}
	// After the calibration window has filled, frames decode exactly.
	correct, total := 0, 0
	for _, fd := range emitted {
		if fd.Index < 16 || fd.Captures == 0 {
			continue
		}
		want := stream.DataFrame(fd.Index)
		for i := range want.Bits {
			if !fd.Decided[i] {
				continue
			}
			total++
			if fd.Bits.Bits[i] == want.Bits[i] {
				correct++
			}
		}
	}
	if total == 0 {
		t.Fatal("no decided blocks after warm-up")
	}
	if acc := float64(correct) / float64(total); acc < 0.99 {
		t.Fatalf("streaming accuracy %.3f after warm-up, want >= 0.99", acc)
	}
}

// TestStreamingEmitsInOrder: frame indices come out strictly increasing and
// gaps (no captures) are emitted as empty decodes rather than skipped.
func TestStreamingEmitsInOrder(t *testing.T) {
	p := smallParams()
	p.Tau = 8
	l := p.Layout
	m := newMux(t, p, video.Gray(l.FrameW, l.FrameH), NewRandomStream(l, 3))
	caps, times, exp := idealCaptures(m, 10*p.Tau)
	cfg := DefaultReceiverConfig(p, l.FrameW, l.FrameH)
	sr, err := NewStreamingReceiver(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	push := func(i int) {
		for _, fd := range sr.Push(caps[i], times[i], exp) {
			if fd.Index != next {
				t.Fatalf("emitted frame %d, want %d", fd.Index, next)
			}
			next++
		}
	}
	// Feed the first quarter, skip the second (camera occlusion), resume.
	quarter := len(caps) / 4
	for i := 0; i < quarter; i++ {
		push(i)
	}
	for i := 2 * quarter; i < len(caps); i++ {
		push(i)
	}
	if next < 7 {
		t.Fatalf("only %d frames emitted", next)
	}
}

// TestStreamingAdaptsToContentChange: a block whose video texture jumps
// mid-run recovers once the jump leaves the trailing window, whereas the
// batch decoder's whole-run percentiles stay polluted.
func TestStreamingAdaptsToContentChange(t *testing.T) {
	p := smallParams()
	p.Tau = 8
	l := p.Layout
	stream := NewRandomStream(l, 21)

	// Content: flat gray for 20 data frames, then strong static texture in
	// one block's area, then flat again for 40 more frames.
	texFrame := video.Gray(l.FrameW, l.FrameH).Frame(0)
	x0, y0, w, h := l.BlockRect(2, 1)
	for y := y0; y < y0+h; y++ {
		for x := x0; x < x0+w; x++ {
			if (x+y)%2 == 0 {
				texFrame.Set(x, y, 60)
			} else {
				texFrame.Set(x, y, 200)
			}
		}
	}
	flat := video.Gray(l.FrameW, l.FrameH).Frame(0)
	nData := 70
	texStart, texEnd := 20, 30
	mux := newMux(t, p, &switchSource{
		flat: flat, tex: texFrame,
		fromVideo: texStart * p.Tau / 4, toVideo: texEnd * p.Tau / 4,
	}, stream)
	caps, times, exp := idealCaptures(mux, nData*p.Tau)

	cfg := DefaultReceiverConfig(p, l.FrameW, l.FrameH)
	sr, err := NewStreamingReceiver(cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	blockIdx := 1*l.BlocksX + 2
	lateDecided := 0
	lateCorrect := 0
	for i := range caps {
		for _, fd := range sr.Push(caps[i], times[i], exp) {
			// Look at frames well after the texture burst has left the
			// 12-frame window.
			if fd.Index < texEnd+14 || fd.Captures == 0 {
				continue
			}
			if fd.Decided[blockIdx] {
				lateDecided++
				if fd.Bits.Bits[blockIdx] == stream.DataFrame(fd.Index).Bit(2, 1) {
					lateCorrect++
				}
			}
		}
	}
	if lateDecided < 10 {
		t.Fatalf("block stayed undecided after the burst left the window (%d decided)", lateDecided)
	}
	if float64(lateCorrect)/float64(lateDecided) < 0.9 {
		t.Fatalf("late accuracy %d/%d after recovery", lateCorrect, lateDecided)
	}
}

// switchSource shows flat content except for video frames in
// [fromVideo, toVideo), which carry the textured frame.
type switchSource struct {
	flat, tex          *frame.Frame
	fromVideo, toVideo int
}

func (s *switchSource) Frame(i int) *frame.Frame {
	if i >= s.fromVideo && i < s.toVideo {
		return s.tex.Clone()
	}
	return s.flat.Clone()
}
func (s *switchSource) Size() (int, int) { return s.flat.W, s.flat.H }
func (s *switchSource) FPS() float64     { return 30 }

// TestStreamingDecisionMatchesBatchUnderPose: a projective Pose scales the
// receiver's decision floors by the predicted warp attenuation, and the
// streaming decoder must decide with those same floors as the batch one.
// Every Block's level gap sits between the attenuated swing floor and the
// configured MinGap, so a streaming decoder that read the raw MinGap would
// erase Blocks the batch decoder decides.
func TestStreamingDecisionMatchesBatchUnderPose(t *testing.T) {
	p := smallParams()
	l := p.Layout
	cfg := DefaultReceiverConfig(p, l.FrameW, l.FrameH)
	pose := frame.Homography{M: [9]float64{1, 0.02, 0, 0, 1, 0, 1e-4, 0, 1}}
	cfg.Pose = &pose
	const window = 8
	sr, err := NewStreamingReceiver(cfg, window)
	if err != nil {
		t.Fatal(err)
	}
	r := sr.Receiver()
	if !(r.minGap < cfg.MinGap) {
		t.Fatalf("projective pose did not attenuate the swing floor: %v vs MinGap %v", r.minGap, cfg.MinGap)
	}
	gap := float64((r.minGap + cfg.MinGap) / 2)

	// One capture per data frame: Blocks alternate between two levels gap
	// apart, and every third Block has a degraded link quality, which widens
	// its band.
	nBlocks := l.NumBlocks()
	accs := make([]*frameAcc, window)
	for d := range accs {
		scores := make([]float64, nBlocks)
		quality := make([]float64, nBlocks)
		for j := range scores {
			scores[j] = 10
			if (d+j)%2 == 1 {
				scores[j] += gap
			}
			quality[j] = 1
			if j%3 == 0 {
				quality[j] = 0.2
			}
		}
		accs[d] = newFrameAcc(nBlocks)
		accs[d].add(scores, quality)
		sr.acc[d] = accs[d]
	}

	d := window - 1 // its trailing window spans every frame, like the batch calibration
	want := r.decodePerBlock(accs)[d]
	got := sr.finalize(d)
	decided := 0
	for j := 0; j < nBlocks; j++ {
		if got.BlockCauses[j] != want.BlockCauses[j] || got.Decided[j] != want.Decided[j] ||
			got.Bits.Bits[j] != want.Bits.Bits[j] {
			t.Fatalf("Block %d: streaming cause %v decided %v bit %v, batch cause %v decided %v bit %v",
				j, got.BlockCauses[j], got.Decided[j], got.Bits.Bits[j],
				want.BlockCauses[j], want.Decided[j], want.Bits.Bits[j])
		}
		if want.Decided[j] {
			decided++
		}
	}
	if decided == 0 {
		t.Fatal("batch decided no Block; the gap does not exercise the attenuated floor")
	}
}

// TestStreamingMinCaptureQualityGating: the online driver honours the same
// capture-quality gate as the batch one. The all-black capture that
// TestMinCaptureQualityGating splices into data frame 7 is pushed right after
// that frame's genuine captures; gated at 0.2 the emitted frames equal the
// clean stream's, ungated the garbage pollutes them.
func TestStreamingMinCaptureQualityGating(t *testing.T) {
	p := smallParams()
	l := p.Layout
	m := newMux(t, p, video.Gray(l.FrameW, l.FrameH), NewRandomStream(l, 11))
	nData := 24
	caps, times, exp := idealCaptures(m, nData*p.Tau)
	at := 7*p.Tau + p.Tau/2 // first capture past frame 7's steady window
	garbage := frame.NewFilled(l.FrameW, l.FrameH, 0)
	polluted := append(append(append([]*frame.Frame{}, caps[:at]...), garbage), caps[at:]...)
	pollutedTimes := append(append(append([]float64{}, times[:at]...), times[7*p.Tau]+float64(exp/4)), times[at:]...)

	run := func(gate float64, caps []*frame.Frame, times []float64) []*FrameDecode {
		cfg := DefaultReceiverConfig(p, l.FrameW, l.FrameH)
		cfg.MinCaptureQuality = gate
		sr, err := NewStreamingReceiver(cfg, 12)
		if err != nil {
			t.Fatal(err)
		}
		var out []*FrameDecode
		for i := range caps {
			out = append(out, sr.Push(caps[i], times[i], exp)...)
		}
		return out
	}
	want := run(0, caps, times)
	if got := run(0.2, polluted, pollutedTimes); !reflect.DeepEqual(got, want) {
		t.Fatal("gated stream of the polluted sequence differs from the clean stream")
	}
	if got := run(0, polluted, pollutedTimes); reflect.DeepEqual(got, want) {
		t.Fatal("ungated garbage capture left the stream unchanged; the gate test exercises nothing")
	}
}
