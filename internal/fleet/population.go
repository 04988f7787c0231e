// Package fleet is the broadcast harness of the InFrame deployment story:
// one screen renders the 120 Hz multiplexed stream once, and a heterogeneous
// population of N receivers decodes it concurrently. The display is the
// paper's single transmitter; the fleet is the "humans and devices" audience
// — phones at different resolutions, free-running start offsets, and
// real-world channel impairments drawn from a seeded population model.
//
// Determinism contract (matching internal/impair and internal/parallel):
// every sampled receiver attribute is keyed by (population seed, stage,
// receiver index) through a splitmix64-style finalizer, never by worker
// identity or scheduling order, so a fleet run is bit-identical at any
// worker count. Aggregation walks receivers in index order — no map
// iteration feeds any ordered output.
package fleet

import (
	"fmt"
	"math/rand"
	"strings"

	"inframe/internal/camera"
	"inframe/internal/detrng"
	"inframe/internal/impair"
)

// Population is the seeded model receivers are drawn from. The zero value
// is not usable; fill every field or start from DefaultPopulation.
type Population struct {
	// Seed drives all population sampling. Two populations with equal
	// fields produce identical receiver specs, receiver by receiver.
	Seed int64
	// N is the fleet size.
	N int
	// Sizes lists the candidate capture geometries as {W, H} pairs; each
	// receiver samples one uniformly. Distinct sizes exercise the shared
	// frame pool's per-size free lists.
	Sizes [][2]int
	// StartMin and StartMax bound the uniform camera start offset in
	// seconds relative to the first displayed frame. Receivers join a
	// broadcast mid-stream; offsets beyond the rendered duration model a
	// camera that arrived after the transmission ended and must yield an
	// all-erasure report, not a panic.
	StartMin, StartMax float64
	// ExposureJitter is the half-width of the relative exposure
	// perturbation: each receiver's exposure is the base camera's times
	// 1 ± U(0, ExposureJitter). Must stay below 1.
	ExposureJitter float64
	// NoiseMin and NoiseMax bound the uniform per-receiver sensor read
	// noise (8-bit levels).
	NoiseMin, NoiseMax float64
	// CleanFrac is the fraction of receivers with an unimpaired channel;
	// the rest sample one of Profiles uniformly.
	CleanFrac float64
	// Profiles are the impairment templates impaired receivers draw from.
	// The template's Seed is replaced per receiver, so two receivers with
	// the same profile still see independent fault streams.
	Profiles []impair.Config
}

// DefaultPopulation models a plausible broadcast audience around a base
// capture geometry: full, 3/4 and 1/2 resolution sensors, sub-150 ms join
// offsets, mild exposure and noise spread, and a 40% clean / 60% impaired
// split over single-fault profiles (drift, mains flicker, capture loss,
// gain hunting plus ambient ramp, partial occlusion).
func DefaultPopulation(seed int64, n, capW, capH int) Population {
	return Population{
		Seed: seed,
		N:    n,
		Sizes: [][2]int{
			{capW, capH},
			{3 * capW / 4, 3 * capH / 4},
			{capW / 2, capH / 2},
		},
		StartMax:       0.15,
		ExposureJitter: 0.15,
		NoiseMin:       1.5,
		NoiseMax:       3.5,
		CleanFrac:      0.4,
		Profiles: []impair.Config{
			{ClockDriftPPM: 300},
			{FlickerAmp: 3, FlickerHz: 100},
			{DropRate: 0.1},
			{GainAmp: 0.02, GainHz: 0.7, AmbientRamp: 6},
			{OccludeX: 0.1, OccludeY: 0.1, OccludeW: 0.2, OccludeH: 0.2, OccludeLevel: 30},
		},
	}
}

// Validate reports whether the population is usable.
func (p *Population) Validate() error {
	if p.N <= 0 {
		return fmt.Errorf("fleet: population N must be positive, got %d", p.N)
	}
	if len(p.Sizes) == 0 {
		return fmt.Errorf("fleet: population needs at least one capture size")
	}
	for i, sz := range p.Sizes {
		if sz[0] <= 0 || sz[1] <= 0 {
			return fmt.Errorf("fleet: population size %d is %dx%d", i, sz[0], sz[1])
		}
	}
	if p.StartMin < 0 || p.StartMax < p.StartMin {
		return fmt.Errorf("fleet: start offsets need 0 <= StartMin <= StartMax, got [%v, %v]",
			p.StartMin, p.StartMax)
	}
	if p.ExposureJitter < 0 || p.ExposureJitter >= 1 {
		return fmt.Errorf("fleet: ExposureJitter must be in [0,1), got %v", p.ExposureJitter)
	}
	if p.NoiseMin < 0 || p.NoiseMax < p.NoiseMin {
		return fmt.Errorf("fleet: noise range needs 0 <= NoiseMin <= NoiseMax, got [%v, %v]",
			p.NoiseMin, p.NoiseMax)
	}
	if p.CleanFrac < 0 || p.CleanFrac > 1 {
		return fmt.Errorf("fleet: CleanFrac must be in [0,1], got %v", p.CleanFrac)
	}
	if p.CleanFrac < 1 && len(p.Profiles) == 0 {
		return fmt.Errorf("fleet: CleanFrac %v < 1 needs impairment profiles", p.CleanFrac)
	}
	for i := range p.Profiles {
		if err := p.Profiles[i].Validate(); err != nil {
			return fmt.Errorf("fleet: profile %d: %w", i, err)
		}
	}
	return nil
}

// Population sampling stages key the per-attribute random streams; they
// live in the frozen registry (internal/detrng, fleet domain), exactly
// like internal/impair's: adding, removing or toggling one sampled
// attribute never shifts another attribute's stream, and the stagekey
// analyzer rejects derivations that do not key off a registry constant.

// rng returns the random stream of one (stage, receiver index) cell via
// the shared splitmix64 finalizer (detrng.Mix), the same mix impair.Stack
// uses, so adjacent receivers land far apart in seed space.
func (p *Population) rng(stage detrng.Stage, index int) *rand.Rand {
	return detrng.Rand(p.Seed, stage, index)
}

// ReceiverSpec is one sampled fleet member: a concrete camera, a start
// offset, and an optional impairment stack.
type ReceiverSpec struct {
	// Index is the receiver's position in the population, the key of
	// every random stream that shaped it.
	Index int
	// Camera is the fully resolved capture configuration.
	Camera camera.Config
	// Start is the camera start offset in seconds (channel.Config.CameraStart).
	Start float64
	// Impair is the receiver's fault stack; nil for a clean channel.
	Impair *impair.Config
	// Profile names the impairment stack ("clean", or the '+'-joined
	// stage names) for cohort reporting.
	Profile string
}

// Spec samples receiver i. base supplies everything the population does not
// model (FPS, gamma, readout, pool, workers); geometry, exposure, noise and
// the noise seed are overridden from the seeded streams. Spec is pure: the
// same (population, i, base) always returns the same spec, and sampling
// receiver i never consumes receiver j's stream.
func (p *Population) Spec(i int, base camera.Config) ReceiverSpec {
	cam := base
	sz := p.Sizes[p.rng(detrng.FleetSize, i).Intn(len(p.Sizes))]
	cam.W, cam.H = sz[0], sz[1]
	if p.ExposureJitter > 0 {
		cam.Exposure = base.Exposure * (1 + float64(p.ExposureJitter*(2*float64(p.rng(detrng.FleetExposure, i).Float64())-1)))
	}
	cam.NoiseSigma = p.NoiseMin + float64((p.NoiseMax-p.NoiseMin)*p.rng(detrng.FleetNoise, i).Float64())
	cam.Seed = p.rng(detrng.FleetCamSeed, i).Int63()
	start := p.StartMin + float64((p.StartMax-p.StartMin)*p.rng(detrng.FleetStart, i).Float64())

	spec := ReceiverSpec{Index: i, Camera: cam, Start: start, Profile: "clean"}
	prng := p.rng(detrng.FleetProfile, i)
	if prng.Float64() >= p.CleanFrac && len(p.Profiles) > 0 {
		cfg := p.Profiles[prng.Intn(len(p.Profiles))]
		cfg.Seed = p.rng(detrng.FleetImpairSeed, i).Int63()
		spec.Impair = &cfg
		if names := impair.New(cfg).Names(); len(names) > 0 {
			spec.Profile = strings.Join(names, "+")
		}
	}
	return spec
}
