package frame

import (
	"math"
	"testing"
)

// TestPoolReuse pins the core contract: a Get after a Put of the same size
// returns the recycled buffer (same backing array), zeroed.
func TestPoolReuse(t *testing.T) {
	p := NewPool()
	f := p.Get(8, 4)
	f.Fill(77)
	px := &f.Pix[0]
	p.Put(f)
	g := p.Get(8, 4)
	if &g.Pix[0] != px {
		t.Fatalf("Get did not reuse the Put frame's buffer")
	}
	for i, v := range g.Pix {
		if v != 0 {
			t.Fatalf("recycled frame not zeroed at %d: %v", i, v)
		}
	}
}

// TestPoolCrossSize verifies that free lists are keyed by exact W×H: a
// frame Put at one size must not satisfy a Get at another, even with the
// same pixel count.
func TestPoolCrossSize(t *testing.T) {
	p := NewPool()
	f := p.Get(8, 4)
	px := &f.Pix[0]
	p.Put(f)
	g := p.Get(4, 8) // same 32 pixels, different geometry
	if &g.Pix[0] == px {
		t.Fatalf("Get(4,8) reused a Put(8,4) buffer")
	}
	p.Put(g)
	h := p.Get(8, 4)
	if &h.Pix[0] != px {
		t.Fatalf("Get(8,4) did not reuse the matching 8x4 buffer")
	}
}

// TestPoolStats checks the traffic accounting across a deterministic
// Get/Put sequence.
func TestPoolStats(t *testing.T) {
	p := NewPool()
	a := p.Get(4, 4) // miss
	b := p.Get(4, 4) // miss
	p.Put(a)
	c := p.Get(4, 4) // hit
	p.Put(b)
	p.Put(c)
	got := p.Stats()
	want := PoolStats{Gets: 3, Puts: 3, Hits: 1, Misses: 2}
	if got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
	if n := p.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
}

// TestPoolDoublePutPanics pins the loud-misuse contract: returning the
// same frame twice means two stages think they own it.
func TestPoolDoublePutPanics(t *testing.T) {
	p := NewPool()
	f := p.Get(4, 4)
	p.Put(f)
	defer func() {
		if recover() == nil {
			t.Fatalf("double Put did not panic")
		}
	}()
	p.Put(f)
}

// TestPoolCorruptPutPanics pins the size-mismatch panic for a frame whose
// buffer no longer matches its dimensions.
func TestPoolCorruptPutPanics(t *testing.T) {
	p := NewPool()
	f := &Frame{W: 4, H: 4, Pix: make([]float32, 3)}
	defer func() {
		if recover() == nil {
			t.Fatalf("corrupt Put did not panic")
		}
	}()
	p.Put(f)
}

// TestPoolAdoptsForeignFrames verifies Put accepts frames the pool never
// handed out (e.g. a capture allocated before pooling was enabled).
func TestPoolAdoptsForeignFrames(t *testing.T) {
	p := NewPool()
	f := New(6, 2)
	p.Put(f)
	g := p.Get(6, 2)
	if &g.Pix[0] != &f.Pix[0] {
		t.Fatalf("adopted frame was not reused")
	}
}

// TestNilPool pins the null-object behavior every pipeline stage relies
// on: a nil pool degrades to plain allocation with Puts dropped.
func TestNilPool(t *testing.T) {
	var p *Pool
	f := p.Get(5, 3)
	if f == nil || f.W != 5 || f.H != 3 {
		t.Fatalf("nil pool Get returned %v", f)
	}
	p.Put(f) // must not panic
	if s := p.Stats(); s != (PoolStats{}) {
		t.Fatalf("nil pool stats = %+v", s)
	}
	if p.Len() != 0 {
		t.Fatalf("nil pool Len = %d", p.Len())
	}
}

// TestPoolMaxPerSize pins the per-size cap: Puts beyond the cap drop their
// frame (counted as Evicted), Gets after eviction allocate fresh, and the
// cap is keyed per size — one full list must not block another size's Puts.
func TestPoolMaxPerSize(t *testing.T) {
	p := NewPool()
	p.SetMaxPerSize(2)
	frames := []*Frame{p.Get(4, 4), p.Get(4, 4), p.Get(4, 4), p.Get(8, 2)}
	for _, f := range frames {
		p.Put(f)
	}
	if got := p.Stats().Evicted; got != 1 {
		t.Fatalf("Evicted = %d, want 1 (third 4x4 Put over the cap)", got)
	}
	if n := p.Len(); n != 3 {
		t.Fatalf("Len = %d, want 3 (two 4x4 + one 8x2 retained)", n)
	}
	// The evicted frame is gone: two hits drain the 4x4 list, the third
	// Get must miss.
	p.Get(4, 4)
	p.Get(4, 4)
	before := p.Stats().Misses
	p.Get(4, 4)
	if got := p.Stats().Misses; got != before+1 {
		t.Fatalf("Get after eviction hit the free list (misses %d -> %d)", before, got)
	}
}

// TestPoolSetMaxPerSizeTrimsExisting verifies the cap applies retroactively:
// lists longer than the new cap shrink immediately and the evictions are
// accounted.
func TestPoolSetMaxPerSizeTrimsExisting(t *testing.T) {
	p := NewPool()
	for i := 0; i < 5; i++ {
		p.Put(New(4, 4))
	}
	p.SetMaxPerSize(2)
	if n := p.Len(); n != 2 {
		t.Fatalf("Len after SetMaxPerSize(2) = %d, want 2", n)
	}
	if got := p.Stats().Evicted; got != 3 {
		t.Fatalf("Evicted = %d, want 3", got)
	}
}

// TestPoolTrim pins the one-shot release: Trim drops beyond the given
// per-size count without installing a standing cap, keeps the most recently
// Put frames, and Trim(0) empties the pool.
func TestPoolTrim(t *testing.T) {
	p := NewPool()
	var last *Frame
	for i := 0; i < 4; i++ {
		last = New(6, 3)
		p.Put(last)
	}
	if got := p.Trim(1); got != 3 {
		t.Fatalf("Trim(1) evicted %d, want 3", got)
	}
	// LIFO retention: the surviving frame is the most recently Put.
	if g := p.Get(6, 3); &g.Pix[0] != &last.Pix[0] {
		t.Fatalf("Trim did not keep the most recently Put frame")
	}
	// No standing cap: both frames stick.
	p.Put(New(6, 3))
	p.Put(New(6, 3))
	if n := p.Len(); n != 2 {
		t.Fatalf("Len after post-Trim Puts = %d, want 2 (Trim must not cap)", n)
	}
	if got := p.Trim(0); got != 2 {
		t.Fatalf("Trim(0) evicted %d, want 2", got)
	}
	if n := p.Len(); n != 0 {
		t.Fatalf("Len after Trim(0) = %d, want 0", n)
	}
}

// TestPoolHighWater pins the residency accounting across a mixed-size
// sequence: the peak tracks the largest simultaneous free-list population,
// in frames and pixels, and never decreases.
func TestPoolHighWater(t *testing.T) {
	p := NewPool()
	a, b, c := New(4, 4), New(4, 4), New(10, 2) // 16+16+20 pixels
	p.Put(a)
	p.Put(b)
	p.Put(c)
	want := PoolHighWater{Frames: 3, Pixels: 52}
	if hw := p.HighWater(); hw != want {
		t.Fatalf("HighWater = %+v, want %+v", hw, want)
	}
	// Draining does not lower the recorded peak.
	p.Get(4, 4)
	p.Get(4, 4)
	p.Get(10, 2)
	if hw := p.HighWater(); hw != want {
		t.Fatalf("HighWater after drain = %+v, want %+v", hw, want)
	}
	// A capped pool's high-water is bounded by the cap even as Puts churn.
	q := NewPool()
	q.SetMaxPerSize(1)
	for i := 0; i < 10; i++ {
		q.Put(New(4, 4))
		q.Put(New(8, 8))
	}
	if hw := q.HighWater(); hw.Frames != 2 || hw.Pixels != 16+64 {
		t.Fatalf("capped HighWater = %+v, want 2 frames / 80 pixels", hw)
	}
	var nilPool *Pool
	if hw := nilPool.HighWater(); hw != (PoolHighWater{}) {
		t.Fatalf("nil pool HighWater = %+v", hw)
	}
	if nilPool.Trim(0) != 0 {
		t.Fatalf("nil pool Trim evicted frames")
	}
	nilPool.SetMaxPerSize(3) // must not panic
}

// TestPoolCapDeterminism proves eviction cannot reach pixel data: a capped
// pool and an unbounded pool hand out bit-identical (zeroed) frames for the
// same Get/Put sequence, whatever was evicted in between.
func TestPoolCapDeterminism(t *testing.T) {
	run := func(p *Pool) []float32 {
		var out []float32
		for i := 0; i < 6; i++ {
			f := p.Get(4, 2)
			for j := range f.Pix {
				out = append(out, f.Pix[j])
				f.Pix[j] = float32(i*10 + j) // dirty before returning
			}
			p.Put(f)
		}
		return out
	}
	capped := NewPool()
	capped.SetMaxPerSize(1)
	a := run(capped)
	b := run(NewPool())
	for i := range a {
		// The contract under test is bit-identity, so the comparison must be exact.
		if a[i] != b[i] {
			t.Fatalf("capped and unbounded pools diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestFillPixNegativeZero guards the fill fast path: -0 has a non-zero bit
// pattern, so it must not be routed through the memclr (which would write
// +0 and silently break bit-identity between filled and stored planes).
func TestFillPixNegativeZero(t *testing.T) {
	negZero := math.Float32frombits(0x8000_0000)
	f := NewFilled(7, 3, negZero)
	for i, v := range f.Pix {
		if math.Float32bits(v) != 0x8000_0000 {
			t.Fatalf("pixel %d = %x, want negative zero", i, math.Float32bits(v))
		}
	}
}

// TestFillMatchesNewFilled keeps the two public fill paths on the shared
// loop: Fill over an existing frame and NewFilled must agree bit for bit.
func TestFillMatchesNewFilled(t *testing.T) {
	for _, v := range []float32{0, 1, 42.5, -3, 255} {
		a := NewFilled(9, 5, v)
		b := New(9, 5)
		b.Fill(123)
		b.Fill(v)
		if !a.Equal(b) {
			t.Fatalf("Fill(%v) and NewFilled(%v) disagree", v, v)
		}
	}
}
