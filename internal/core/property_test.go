package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"inframe/internal/frame"
	"inframe/internal/video"
)

// TestPropBlockRectsTile: Block rectangles partition the grid area exactly —
// no overlap, no gaps, all inside the panel.
func TestPropBlockRectsTile(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(3)
		s := 2 + rng.Intn(4)
		bx := 2 * (1 + rng.Intn(5))
		by := 2 * (1 + rng.Intn(4))
		l := Layout{
			FrameW: bx*p*s + 2*rng.Intn(8), FrameH: by*p*s + 2*rng.Intn(8),
			PixelSize: p, BlockSize: s, GOBSize: 2,
			BlocksX: bx, BlocksY: by,
		}
		if l.Validate() != nil {
			return true // not a valid layout; nothing to check
		}
		covered := make(map[[2]int]int)
		for j := 0; j < l.BlocksY; j++ {
			for i := 0; i < l.BlocksX; i++ {
				x0, y0, w, h := l.BlockRect(i, j)
				if x0 < 0 || y0 < 0 || x0+w > l.FrameW || y0+h > l.FrameH {
					return false
				}
				for y := y0; y < y0+h; y++ {
					for x := x0; x < x0+w; x++ {
						covered[[2]int{x, y}]++
					}
				}
			}
		}
		want := l.NumBlocks() * l.BlockPx() * l.BlockPx()
		if len(covered) != want {
			return false
		}
		for _, n := range covered {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropDataBitsRoundTrip: FromDataBits ∘ DataBits is the identity for
// arbitrary payloads, and every GOB keeps parity.
func TestPropDataBitsRoundTrip(t *testing.T) {
	l := smallLayout()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bits := make([]bool, l.DataBitsPerFrame())
		for i := range bits {
			bits[i] = rng.Intn(2) == 1
		}
		df, err := FromDataBits(l, bits)
		if err != nil {
			return false
		}
		back := df.DataBits()
		for i := range bits {
			if back[i] != bits[i] {
				return false
			}
		}
		for gy := 0; gy < l.GOBsY(); gy++ {
			for gx := 0; gx < l.GOBsX(); gx++ {
				if !df.ParityOK(gx, gy) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropEnvelopeBounds: the smoothed amplitude never leaves [0, δ] for any
// payload and any display frame.
func TestPropEnvelopeBounds(t *testing.T) {
	l := smallLayout()
	prop := func(seed int64, kRaw uint16) bool {
		p := DefaultParams(l)
		p.Tau = 8
		stream := NewRandomStream(l, seed)
		k := int(kRaw) % (20 * p.Tau)
		cur, next := stream.DataFrame(k/p.Tau), stream.DataFrame(k/p.Tau+1)
		for by := 0; by < l.BlocksY; by++ {
			for bx := 0; bx < l.BlocksX; bx++ {
				a := envelope(p, cur.Bit(bx, by), next.Bit(bx, by), k)
				if a < -1e-12 || a > p.Delta+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropPairFusion: for any random payload and any even display frame of
// a steady period, the complementary pair averages back to the video.
func TestPropPairFusion(t *testing.T) {
	l := smallLayout()
	prop := func(seed int64, periodRaw uint8) bool {
		p := DefaultParams(l)
		p.Tau = 8
		m, err := NewMultiplexer(p, video.Gray(l.FrameW, l.FrameH), NewRandomStream(l, seed))
		if err != nil {
			return false
		}
		// Even frame inside the steady half of an arbitrary period.
		k := int(periodRaw) % 16 * p.Tau
		avg, err := frame.Average(m.Frame(k), m.Frame(k+1))
		if err != nil {
			return false
		}
		mae, _ := frame.MAE(avg, video.Gray(l.FrameW, l.FrameH).Frame(0))
		return mae < 1e-4
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPropCaptureMappingInverse: FullFrame mappings round-trip coordinates.
func TestPropCaptureMappingInverse(t *testing.T) {
	l := smallLayout()
	prop := func(capWRaw, capHRaw uint8, xRaw, yRaw uint16) bool {
		capW := 16 + int(capWRaw)
		capH := 16 + int(capHRaw)
		m := FullFrame(l, capW, capH)
		x := float64(int(xRaw) % l.FrameW)
		y := float64(int(yRaw) % l.FrameH)
		cx, cy := m.Apply(x, y)
		// Invert manually.
		backX := (cx - m.OffX) / m.ScaleX
		backY := (cy - m.OffY) / m.ScaleY
		return math.Abs(backX-x) < 1e-9 && math.Abs(backY-y) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropScramblePreservesLength and inversion under arbitrary keys.
func TestPropScramble(t *testing.T) {
	prop := func(seed int64, idxRaw uint8, payload []byte) bool {
		bits := make([]bool, len(payload))
		for i, b := range payload {
			bits[i] = b&1 == 1
		}
		idx := int(idxRaw)
		s := ScrambleBits(bits, seed, idx)
		if len(s) != len(bits) {
			return false
		}
		back := ScrambleBits(s, seed, idx)
		for i := range bits {
			if back[i] != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
