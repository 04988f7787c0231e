package register

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestNthFloat64MatchesSort checks the selection against the element
// sort.Float64s leaves at each index, for every k, on sets with ties, ±0,
// ±Inf and NaNs of several payloads, at n = 1, odd and even n, and the
// 1500 Blocks of the paper layout. A selected zero may be the other zero
// and a selected NaN another NaN; nothing else may differ.
func TestNthFloat64MatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	nan2 := math.Float64frombits(0x7ff8000000000002)
	pools := map[string][]float64{
		"distinct": nil, // filled per value from r
		"ties":     {-1, 0, 0.5, 0.5, 2},
		"zeros":    {math.Copysign(0, -1), 0, -0.25, 0.25},
		"infs":     {math.Inf(-1), math.Inf(1), -3, 3, 0},
		"nans":     {math.NaN(), nan2, math.Inf(-1), -1, 1, math.Copysign(0, -1), 0},
		"all-nan":  {math.NaN(), nan2},
	}
	sizes := []int{1, 2, 3, 4, 5, 8, 15, 16, 31, 64, 1500}
	for name, pool := range pools {
		for _, n := range sizes {
			for trial := 0; trial < 4; trial++ {
				in := make([]float64, n)
				for i := range in {
					if pool == nil {
						in[i] = r.NormFloat64()
					} else {
						in[i] = pool[r.Intn(len(pool))]
					}
				}
				sorted := append([]float64(nil), in...)
				sort.Float64s(sorted)
				ks := []int{n / 2}
				if n <= 64 {
					ks = ks[:0]
					for k := 0; k < n; k++ {
						ks = append(ks, k)
					}
				}
				for _, k := range ks {
					a := append([]float64(nil), in...)
					got, want := nthFloat64(a, k), sorted[k]
					if !(got == want || (math.IsNaN(got) && math.IsNaN(want))) {
						t.Fatalf("%s n=%d k=%d: selected %v, sort has %v (input %v)", name, n, k, got, want, in)
					}
				}
			}
		}
	}
}
