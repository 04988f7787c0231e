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

// TestFleetPoolCapBoundsHighWater pins the fleet's frame-pool residency:
// every capture goes back to the shared pool as soon as its receiver has
// measured it, so neither an uncapped pool nor a per-size cap ever holds
// more than a few frames of each geometry — no member's capture sequence
// piles up between receivers — and the cap changes no bit of the
// aggregate.
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
	// ~0.8 s of 30 FPS captures per receiver would sit in the free list if
	// captures stayed live until each receiver decoded.
	if hw := unbounded.PoolHighWater.Frames; hw > 16 {
		t.Errorf("unbounded pool high-water %d frames; want a small bound", hw)
	}
	if hw := capped.PoolHighWater.Frames; hw > 16 {
		t.Errorf("capped pool high-water %d frames; want a small bound", hw)
	}
	if got, want := aggregate(capped), aggregate(unbounded); !reflect.DeepEqual(got, want) {
		t.Fatalf("pool cap changed the fleet aggregate:\n got %+v\nwant %+v", got, want)
	}
}
