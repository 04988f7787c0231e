package core

import (
	"math"
	"math/rand"
	"testing"

	"inframe/internal/frame"
)

// fuzzCaptures builds n captures of one garbage family (mode) with capture
// times drawn from tBase upward, interleaving the pixel and time draws of
// one seeded source; it returns the source for further draws.
func fuzzCaptures(l Layout, seed int64, n int, tBase float64, mode uint8) ([]*frame.Frame, []float64, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	caps := make([]*frame.Frame, n)
	times := make([]float64, n)
	for i := range caps {
		fr := frame.New(l.FrameW, l.FrameH)
		switch mode % 7 {
		case 0: // uniform noise
			for j := range fr.Pix {
				fr.Pix[j] = float32(rng.Float64() * 255)
			}
		case 1: // out-of-range and non-finite pixels
			for j := range fr.Pix {
				switch rng.Intn(4) {
				case 0:
					fr.Pix[j] = float32(math.Inf(1))
				case 1:
					fr.Pix[j] = float32(math.NaN())
				case 2:
					fr.Pix[j] = -1e6
				default:
					fr.Pix[j] = float32(rng.NormFloat64() * 1e4)
				}
			}
		case 2: // hard-clipped
			for j := range fr.Pix {
				if rng.Intn(2) == 0 {
					fr.Pix[j] = 255
				}
			}
		case 3: // constant mid-gray (degenerate: no swing anywhere)
			fr.Fill(127)
		case 4: // sparse impulses
			for k := 0; k < 16; k++ {
				fr.Pix[rng.Intn(len(fr.Pix))] = float32(rng.Float64() * 512)
			}
		case 6: // 8-bit codes but a fractional last pixel: the narrowing
			// to the integer scan fails only after a full pass
			for j := range fr.Pix {
				fr.Pix[j] = float32(rng.Intn(256))
			}
			fr.Pix[len(fr.Pix)-1] = 127.5
		default: // hostile sizes: nil, empty, wrong-size, short pixel buffer
			hostile := hostileCaptures(l.FrameW, l.FrameH)
			fr = hostile[rng.Intn(len(hostile))]
		}
		caps[i] = fr
		times[i] = tBase + float64(i)*rng.Float64()/30
	}
	return caps, times, rng
}

// checkDecodeStructure asserts the structural invariants every decode must
// hold for any input: one GOB result per GOB, and every GOB's availability,
// parity and erasure-cause flags self-consistent with its Block decisions.
func checkDecodeStructure(t *testing.T, l Layout, d int, fd *FrameDecode) {
	t.Helper()
	if fd == nil {
		t.Fatalf("frame %d decode is nil", d)
	}
	if len(fd.GOBs) != l.NumGOBs() {
		t.Fatalf("frame %d has %d GOBs", d, len(fd.GOBs))
	}
	for _, g := range fd.GOBs {
		// Available means every component Block decided; a GOB must
		// never claim availability over undecided Blocks.
		allDecided := true
		for _, blk := range l.GOBBlocks(g.GX, g.GY) {
			if !fd.Decided[blk[1]*l.BlocksX+blk[0]] {
				allDecided = false
			}
		}
		if g.Available != allDecided {
			t.Fatalf("frame %d GOB (%d,%d): available=%v but allDecided=%v",
				d, g.GX, g.GY, g.Available, allDecided)
		}
		if g.Available && g.ParityOK != fd.Bits.ParityOK(g.GX, g.GY) {
			t.Fatalf("frame %d GOB (%d,%d): ParityOK flag inconsistent with bits",
				d, g.GX, g.GY)
		}
		if g.Available && !g.ParityOK && g.Cause != CauseParity {
			t.Fatalf("frame %d GOB (%d,%d): parity failure with cause %v",
				d, g.GX, g.GY, g.Cause)
		}
		if !g.Available && g.Cause == CauseNone {
			t.Fatalf("frame %d GOB (%d,%d): erased without a cause", d, g.GX, g.GY)
		}
	}
}

// FuzzDecodeCaptures throws arbitrary capture sequences at the full decode
// path — garbage pixels, captures of hostile sizes, non-finite times and
// exposures, degenerate capture counts — and checks the structural
// invariants that must hold for any input: no panic, exactly nFrames
// decodes, every decode's availability and parity flags self-consistent
// with its Block decisions, and no capture of the wrong size scored.
func FuzzDecodeCaptures(f *testing.F) {
	f.Add(int64(1), uint8(4), 0.0, 1.0/120, uint8(0))
	f.Add(int64(7), uint8(0), 0.5, 0.002, uint8(1))
	f.Add(int64(-3), uint8(6), -1.0, 0.0, uint8(2))
	f.Add(int64(99), uint8(3), 1e300, math.Inf(1), uint8(3))
	f.Add(int64(42), uint8(2), math.NaN(), math.NaN(), uint8(4))
	f.Add(int64(8), uint8(7), 0.0, 1.0/120, uint8(5))
	f.Add(int64(11), uint8(4), 0.0, 1.0/120, uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, nCaps uint8, tBase, exposure float64, mode uint8) {
		p := smallParams()
		l := p.Layout
		n := int(nCaps % 8)
		caps, times, _ := fuzzCaptures(l, seed, n, tBase, mode)
		r := smallReceiver(t, p)
		nFrames := 3
		decoded, rep := r.DecodeCapturesReport(caps, times, exposure, nFrames)
		if len(decoded) != nFrames {
			t.Fatalf("decoded %d frames, want %d", len(decoded), nFrames)
		}
		for d, fd := range decoded {
			checkDecodeStructure(t, l, d, fd)
		}
		if len(rep.Quality) != n {
			t.Fatalf("quality timeline %d entries, want %d", len(rep.Quality), n)
		}
		for _, q := range rep.Quality {
			if q.Scored && (math.IsNaN(q.Quality) || q.Quality < 0 || q.Quality > 1) {
				t.Fatalf("capture %d quality %v outside [0,1]", q.Index, q.Quality)
			}
			if c := caps[q.Index]; q.Scored && (c == nil || c.W != l.FrameW || c.H != l.FrameH || len(c.Pix) != c.W*c.H) {
				t.Fatalf("capture %d of a hostile size was scored", q.Index)
			}
		}
	})
}

// FuzzStreamingPush drives the online decode driver with FuzzDecodeCaptures'
// capture families (hostile sizes included) pushed in a fuzzed order, at times that include NaN, ±Inf
// and non-monotone values, under a fuzzed calibration window and quality
// gate. Finite times are folded into a few tens of seconds: elapsed stream
// time sets Push's output size by contract (one decode per elapsed frame),
// and folding keeps every input class. For any input: no panic and no hang,
// emitted indices contiguous from 0, and every decode structurally sound.
func FuzzStreamingPush(f *testing.F) {
	f.Add(int64(1), uint8(4), 0.0, 1.0/120, uint8(0), uint8(0))
	f.Add(int64(7), uint8(5), 0.5, 0.002, uint8(1), uint8(3))
	f.Add(int64(-3), uint8(6), -1.0, 0.0, uint8(2), uint8(9))
	f.Add(int64(99), uint8(3), 1e300, math.Inf(1), uint8(3), uint8(20))
	f.Add(int64(42), uint8(7), math.NaN(), math.NaN(), uint8(4), uint8(255))
	f.Add(int64(5), uint8(7), 2.0, -0.001, uint8(0), uint8(77))
	f.Add(int64(8), uint8(7), 0.0, 1.0/120, uint8(5), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, nCaps uint8, tBase, exposure float64, mode, knobs uint8) {
		p := smallParams()
		l := p.Layout
		caps, times, rng := fuzzCaptures(l, seed, int(nCaps%8), tBase, mode)
		for i := range times {
			switch rng.Intn(8) {
			case 0:
				times[i] = math.NaN()
			case 1:
				times[i] = math.Inf(1)
			case 2:
				times[i] = math.Inf(-1)
			default:
				times[i] = math.Mod(times[i], 20) // NaN and ±Inf stay non-finite
			}
		}
		cfg := DefaultReceiverConfig(p, l.FrameW, l.FrameH)
		cfg.MinCaptureQuality = float64(knobs>>4) / 15
		sr, err := NewStreamingReceiver(cfg, 4+int(knobs%16))
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		for _, i := range rng.Perm(len(caps)) {
			for _, fd := range sr.Push(caps[i], times[i], exposure) {
				if fd.Index != next {
					t.Fatalf("emitted frame %d, want %d", fd.Index, next)
				}
				checkDecodeStructure(t, l, next, fd)
				next++
			}
		}
	})
}

// FuzzGOBParity encodes arbitrary payload bits with the XOR parity scheme and
// checks that parity verifies on the clean frame and detects every single-bit
// mangling — no mangled GOB may pass as clean.
func FuzzGOBParity(f *testing.F) {
	f.Add([]byte{0x00}, uint16(0))
	f.Add([]byte{0xFF, 0x13}, uint16(5))
	f.Add([]byte{0xA5, 0x5A, 0x7E}, uint16(17))
	f.Fuzz(func(t *testing.T, raw []byte, flip uint16) {
		if len(raw) == 0 {
			return
		}
		l := smallLayout()
		bits := make([]bool, l.DataBitsPerFrame())
		for i := range bits {
			bits[i] = raw[i%len(raw)]>>(uint(i)%8)&1 == 1
		}
		df, err := FromDataBits(l, bits)
		if err != nil {
			t.Fatal(err)
		}
		for gy := 0; gy < l.GOBsY(); gy++ {
			for gx := 0; gx < l.GOBsX(); gx++ {
				if !df.ParityOK(gx, gy) {
					t.Fatalf("fresh encoding fails parity at GOB (%d,%d)", gx, gy)
				}
			}
		}
		// Flip one Block bit (data or parity) and check the mangled GOB is
		// detected while every other GOB still verifies.
		j := int(flip) % l.NumBlocks()
		bx, by := j%l.BlocksX, j/l.BlocksX
		df.SetBit(bx, by, !df.Bit(bx, by))
		mgx, mgy := bx/l.GOBSize, by/l.GOBSize
		for gy := 0; gy < l.GOBsY(); gy++ {
			for gx := 0; gx < l.GOBsX(); gx++ {
				ok := df.ParityOK(gx, gy)
				if gx == mgx && gy == mgy {
					if ok {
						t.Fatalf("GOB (%d,%d) passes parity with a flipped bit", gx, gy)
					}
				} else if !ok {
					t.Fatalf("untouched GOB (%d,%d) fails parity", gx, gy)
				}
			}
		}
	})
}
