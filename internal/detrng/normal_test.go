package detrng

import (
	"math"
	"math/rand"
	"testing"
)

// peek returns the output the stream's next draw starts from. Advancing
// a used-up block early is what that draw would do first anyway.
func (s *Stream) peek() uint64 {
	if s.next == rngLen {
		s.refill()
	}
	return s.y[s.next]
}

// zigguratPaths counts, per strip, the normal draws whose first output
// misses the fast path. Strip 0's slow path is the tail algorithm.
type zigguratPaths [128]int

func (p *zigguratPaths) note(s *Stream) {
	j := int32(uint32(s.peek() >> 31))
	if i := j & 0x7F; absInt32(j) >= kn[i] {
		p[i]++
	}
}

// TestNormalMatchesMathRand pins Stream to math/rand bit for bit, in two
// parts. The pin holds where the compiler fuses no multiply-add, as on
// amd64: NormFloat64 carries explicit conversions that forbid fusion, and
// math/rand's copy of the ziggurat does not, so on arm64 the two may part
// in the last bit of a slow-path draw.
//
// Seeds: for each seed, in the sensor's shape (normal draws only) and the
// noise burst's (one Float64 gate, then normal draws), every NormFloat64
// must have the Float64bits of rand.New(rand.NewSource(seed))'s value, and
// AddNormal, fed 640-pixel rows as the camera feeds it, must add the
// float32 of the same values times σ. The seeds cover math/rand's seeding
// edge cases (0 and multiples of 2³¹−1 are remapped, negatives wrap, the
// int64 extremes) and the camera's per-capture seeds Seed+i·1000003. Each
// pass crosses 527 blocks, so the block refill's lags are exercised, and
// the path counts show that every strip's slow path and the strip-0 tail
// ran.
//
// Crafted: outputs no seed reaches in a test's time, replayed into both.
func TestNormalMatchesMathRand(t *testing.T) {
	t.Run("seeds", testSeedsMatchMathRand)
	t.Run("crafted", testCraftedOutputsMatchMathRand)
}

func testSeedsMatchMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, math.MaxInt32, 2 * math.MaxInt32, math.MinInt64, math.MaxInt64}
	for i := int64(1); i <= 8; i++ {
		seeds = append(seeds, 1+i*1000003)
	}
	const (
		n     = 320_000
		width = 640
		sigma = 2.5
	)
	var paths zigguratPaths
	draws, added := 0, 0
	row := make([]float32, width)
	for _, seed := range seeds {
		for _, gate := range []bool{false, true} {
			ref := rand.New(rand.NewSource(seed))
			s := NewStream(seed)
			if gate {
				if got, want := s.Float64(), ref.Float64(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d: gate Float64 = %v, math/rand %v", seed, got, want)
				}
				draws++
			}
			for k := 0; k < n; k++ {
				paths.note(s)
				if got, want := s.NormFloat64(), ref.NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d gate %v: draw %d = %v, math/rand %v", seed, gate, k, got, want)
				}
			}
			draws += n
			s.Release()

			ref = rand.New(rand.NewSource(seed))
			s = NewStream(seed)
			if gate {
				s.Float64()
				ref.Float64()
			}
			for r := 0; r < n/width; r++ {
				for x := range row {
					row[x] = float32((r + x) % 256)
				}
				s.AddNormal(row, sigma)
				for x, got := range row {
					if want := float32((r+x)%256) + float32(ref.NormFloat64()*sigma); math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("seed %d gate %v: AddNormal row %d px %d = %v, math/rand %v", seed, gate, r, x, got, want)
					}
				}
			}
			added += n
			s.Release()
		}
	}
	minSlow, minStrip := paths[0], 0
	for i, c := range paths {
		if c < minSlow {
			minSlow, minStrip = c, i
		}
	}
	t.Logf("%d draws and %d added; strip-0 tail ran %d times, fewest slow paths %d (strip %d)",
		draws, added, paths[0], minSlow, minStrip)
	if minSlow == 0 {
		t.Errorf("strip %d's slow path never ran; the draws do not cover the ziggurat", minStrip)
	}
}

// replay is a rand.Source64 that plays back fixed outputs.
type replay struct {
	out []uint64
	n   int
}

func (r *replay) Uint64() uint64 {
	v := r.out[r.n]
	r.n++
	return v
}
func (r *replay) Int63() int64 { return int64(r.Uint64() & rngMask) }
func (r *replay) Seed(int64)   {}

// testCraftedOutputsMatchMathRand starts streams and a replaying math/rand
// generator on one block of chosen outputs and compares their first
// draws: Float64 must retry every output that rounds to 1 (2⁶³−1, the
// rounding boundary 2⁶³−512, and an output with bit 63 set — such an
// output comes once in 2⁵⁴ draws), and NormFloat64 and AddNormal must
// agree on the ziggurat's edges: j = MinInt32 (the tail), |j| exactly
// kn[i] (slow; strip 117 reaches it with j > 0, strip 20 with j < 0) and
// one step inside (fast), strip 1 (always slow), 0 and −1, and an output
// whose ignored bit 63 is set.
func testCraftedOutputsMatchMathRand(t *testing.T) {
	jOut := func(j int32) uint64 { return uint64(uint32(j)) << 31 }
	k117, k20 := int32(kn[117]), -int32(kn[20])
	if k117&0x7F != 117 || k20&0x7F != 20 {
		t.Fatal("kn[117] or −kn[20] is not in its own strip")
	}
	const sigma = 2.5
	cases := []struct {
		name  string
		head  []uint64
		float bool
	}{
		{"Float64 retries", []uint64{1<<63 - 1, 1<<63 - 512, math.MaxUint64, 1<<63 - 513}, true},
		{"tail", []uint64{jOut(math.MinInt32)}, false},
		{"strip 117 at kn", []uint64{jOut(k117)}, false},
		{"strip 117 inside kn", []uint64{jOut(k117 - 128)}, false},
		{"strip 20 at -kn", []uint64{jOut(k20)}, false},
		{"strip 20 inside -kn", []uint64{jOut(k20 + 128)}, false},
		{"strip 1", []uint64{jOut(1)}, false},
		{"zero", []uint64{jOut(0)}, false},
		{"minus one", []uint64{jOut(-1)}, false},
		{"bit 63 set", []uint64{jOut(k117-128) | 1<<63}, false},
	}
	for ci, c := range cases {
		out := make([]uint64, rngLen)
		filler := rand.New(rand.NewSource(int64(ci)))
		for i := range out {
			out[i] = filler.Uint64()
		}
		copy(out, c.head)
		start := func() *Stream {
			s := NewStream(0)
			copy(s.y[:], out)
			s.next = 0
			return s
		}
		s, a := start(), start()
		src := &replay{out: out}
		ref := rand.New(src)
		want := make([]float64, 3)
		for k := range want {
			var got float64
			if c.float {
				got, want[k] = s.Float64(), ref.Float64()
			} else {
				got, want[k] = s.NormFloat64(), ref.NormFloat64()
			}
			if math.Float64bits(got) != math.Float64bits(want[k]) {
				t.Errorf("%s: draw %d = %v, math/rand %v", c.name, k, got, want[k])
			}
			if k == 0 && c.float && src.n != len(c.head) {
				t.Errorf("%s: math/rand's first Float64 read %d outputs, the case expects %d", c.name, src.n, len(c.head))
			}
		}
		if s.next != src.n {
			t.Errorf("%s: stream consumed %d outputs, math/rand %d", c.name, s.next, src.n)
		}
		if !c.float {
			sum := make([]float32, len(want))
			a.AddNormal(sum, sigma)
			for k, v := range want {
				if got, w := sum[k], float32(v*sigma); math.Float32bits(got) != math.Float32bits(w) {
					t.Errorf("%s: AddNormal element %d = %v, math/rand %v", c.name, k, got, w)
				}
			}
			if a.next != src.n {
				t.Errorf("%s: AddNormal consumed %d outputs, math/rand %d", c.name, a.next, src.n)
			}
		}
		s.Release()
		a.Release()
	}
}
