package fleet_test

import (
	"math"
	"reflect"
	"testing"

	"inframe/internal/core"
	"inframe/internal/fleet"
	"inframe/internal/frame"
)

// testLayout mirrors the repo-wide compact geometry: 24×16 Blocks of 4×4 at
// Pixel pitch 2 on a 192×128 display, GOBs of 2×2 Blocks.
func testLayout() core.Layout {
	return core.Layout{
		FrameW: 192, FrameH: 128,
		PixelSize: 2, BlockSize: 4, GOBSize: 2,
		BlocksX: 24, BlocksY: 16,
	}
}

// testConfig is a small, fast fleet: 0.8 s at 120 Hz (12 data frames at
// τ=8), quiet cameras, two capture geometries.
func testConfig(n, workers int) fleet.Config {
	l := testLayout()
	cfg := fleet.DefaultConfig(l, l.FrameW, l.FrameH, n, 5)
	cfg.Params.Tau = 8
	cfg.Seconds = 0.8
	cfg.Workers = workers
	cfg.Camera.ReadoutTime = 0
	cfg.Pop.Sizes = [][2]int{{192, 128}, {96, 64}}
	cfg.Pop.NoiseMin, cfg.Pop.NoiseMax = 0.5, 1.5
	return cfg
}

// aggregate strips the interleaving-dependent pool counters, leaving the
// fields the determinism contract covers bit-for-bit.
func aggregate(res *fleet.Result) fleet.Result {
	c := *res
	c.Pool = frame.PoolStats{}
	c.PoolHighWater = frame.PoolHighWater{}
	return c
}

// TestFleetDeterminismAcrossWorkers pins the acceptance criterion: the
// entire fleet aggregate — every per-receiver row, the distributions, the
// merged degradation stats — is bit-identical at Workers ∈ {1, 2, 8}.
func TestFleetDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full fleet runs; the verify.sh fleet stage covers them")
	}
	base, err := fleet.Run(testConfig(6, 1))
	if err != nil {
		t.Fatal(err)
	}
	if base.NeverDecoded == base.N {
		t.Fatalf("no receiver decoded anything; fleet config is not exercising the channel")
	}
	want := aggregate(base)
	for _, w := range []int{2, 8} {
		res, err := fleet.Run(testConfig(6, w))
		if err != nil {
			t.Fatal(err)
		}
		if got := aggregate(res); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d aggregate diverges from workers=1:\n got %+v\nwant %+v", w, got, want)
		}
	}
}

// TestFleetRenderOncePoolMissesFrozen proves the render-once architecture
// through the shared pool: with one capture geometry and aligned starts,
// every allocation after the first receiver's warmup is a pool hit, so
// growing the fleet adds zero misses — the stream was not re-rendered and
// no per-receiver buffer set exists.
func TestFleetRenderOncePoolMissesFrozen(t *testing.T) {
	if testing.Short() {
		t.Skip("full fleet runs; the verify.sh fleet stage covers them")
	}
	run := func(n int) frame.PoolStats {
		cfg := testConfig(n, 1)
		cfg.Pop.Sizes = [][2]int{{192, 128}}
		cfg.Pop.StartMax = 0
		cfg.Pop.ExposureJitter = 0
		cfg.Pop.CleanFrac = 1 // no drop/dup profiles: identical capture counts
		res, err := fleet.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Pool
	}
	small, large := run(2), run(6)
	if small.Misses != large.Misses {
		t.Fatalf("pool misses grew with fleet size: N=2 missed %d, N=6 missed %d",
			small.Misses, large.Misses)
	}
	if large.Hits <= small.Hits {
		t.Fatalf("larger fleet did not add pool hits (N=2: %d, N=6: %d)", small.Hits, large.Hits)
	}
}

// TestFleetLateStartAllErasure pins the satellite regression: a population
// whose start offsets land beyond the rendered stream must come back as
// all-erasure reports — zero captures, every data frame a gap — never a
// panic, and identically at every worker count.
func TestFleetLateStartAllErasure(t *testing.T) {
	if testing.Short() {
		t.Skip("full fleet runs; the verify.sh fleet stage covers them")
	}
	make_ := func(workers int) fleet.Config {
		cfg := testConfig(3, workers)
		cfg.Pop.StartMin = 10 // 0.8 s rendered; every start is far past the end
		cfg.Pop.StartMax = 20
		return cfg
	}
	base, err := fleet.Run(make_(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range base.Receivers {
		if rr.Captures != 0 {
			t.Fatalf("receiver %d captured %d frames from a finished stream", i, rr.Captures)
		}
		if rr.Avail != 0 || rr.Decoded || !math.IsInf(rr.TTFD, 1) {
			t.Fatalf("receiver %d decoded from a finished stream: %+v", i, rr)
		}
		if rr.GapFrames != base.DataFrames {
			t.Fatalf("receiver %d gaps = %d, want all %d frames", i, rr.GapFrames, base.DataFrames)
		}
	}
	if base.NeverDecoded != base.N {
		t.Fatalf("NeverDecoded = %d, want %d", base.NeverDecoded, base.N)
	}
	if got, want := base.Degrade.GapFrames, base.N*base.DataFrames; got != want {
		t.Fatalf("merged gap frames = %d, want %d", got, want)
	}
	nGOBs := testLayout().NumGOBs()
	if got, want := base.Degrade.Causes[core.CauseNoCapture], base.N*base.DataFrames*nGOBs; got != want {
		t.Fatalf("no-capture erasures = %d, want %d", got, want)
	}
	want := aggregate(base)
	for _, w := range []int{2, 8} {
		res, err := fleet.Run(make_(w))
		if err != nil {
			t.Fatal(err)
		}
		if got := aggregate(res); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d late-start aggregate diverges from workers=1", w)
		}
	}
}

// TestFleetPoolCapBoundsHighWater pins the heterogeneous-geometry memory
// fix at fleet level: an uncapped shared pool retains every geometry's full
// capture sequence between receivers, while a per-size cap holds the
// high-water near the cap — without changing one bit of the aggregate.
func TestFleetPoolCapBoundsHighWater(t *testing.T) {
	if testing.Short() {
		t.Skip("full fleet runs; the verify.sh fleet stage covers them")
	}
	run := func(poolCap int) *fleet.Result {
		cfg := testConfig(6, 1)
		cfg.PoolCap = poolCap
		res, err := fleet.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	unbounded, capped := run(0), run(2)
	if capped.PoolHighWater.Frames >= unbounded.PoolHighWater.Frames {
		t.Fatalf("per-size cap did not lower the high-water: capped %+v, unbounded %+v",
			capped.PoolHighWater, unbounded.PoolHighWater)
	}
	if capped.Pool.Evicted == 0 {
		t.Fatalf("capped fleet run evicted nothing; the cap was never exercised")
	}
	// ~0.8 s of 30 FPS captures per receiver sit in the free list between
	// receivers when unbounded; the cap must keep the resident set to a
	// few frames per distinct size key.
	if hw := capped.PoolHighWater.Frames; hw > 16 {
		t.Fatalf("capped high-water %d frames; want a small bound", hw)
	}
	if got, want := aggregate(capped), aggregate(unbounded); !reflect.DeepEqual(got, want) {
		t.Fatalf("pool cap changed the fleet aggregate:\n got %+v\nwant %+v", got, want)
	}
}
