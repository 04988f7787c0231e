// Package detrng is the frozen registry of deterministic random-stream
// stages. Every seeded subsystem that derives per-item random streams —
// the channel fault injector (internal/impair) and the broadcast-fleet
// population sampler (internal/fleet) — keys each stream by
// (seed, stage, index) through the same splitmix64-style finalizer, so
// that enabling, disabling or reordering one consumer never shifts
// another consumer's stream, and nothing ever depends on worker identity
// or scheduling order.
//
// The Stage values below are part of the repository's determinism
// contract: renumbering one changes every seeded outcome downstream of
// it (the robustness matrix bounds, the fleet distribution pins, the
// EXPERIMENTS.md tables). They are therefore declared here, once, as
// explicit literals — never iota — and the stagekey analyzer
// (internal/analysis) enforces at lint time that every stream derivation
// in the tree keys off one of these constants: no inline literals, no
// arithmetic on stage values, no duplicate IDs within a domain.
//
// Stages are grouped into domains (one const block per consumer). IDs
// must be unique within a domain but may repeat across domains: an
// impair stack and a fleet population never share a seed, so their
// stream spaces cannot collide. The impair and fleet blocks preserve the
// exact values those packages shipped with (impair 1–4 since PR 5, fleet
// 1–7 since PR 6).
//
// The camera's read noise and every impairment stream (capture jitter,
// drop and duplication, the noise burst, pose jitter) draw from Stream:
// math/rand's generator and normal draws copied so that they return the
// same bits without the Source interface or a fresh generator per stream.
package detrng

import "math/rand"

// Stage identifies one random-stream family within a seeded domain. The
// stagekey analyzer requires every Stage-typed argument in the tree to
// be one of the registry constants declared in this package.
type Stage uint64

// Impair domain: the channel fault injector's per-capture streams
// (internal/impair). Values are frozen; see the package comment.
const (
	ImpairJitter Stage = 1
	ImpairDrop   Stage = 2
	ImpairDup    Stage = 3
	ImpairBurst  Stage = 4
	ImpairPose   Stage = 5
)

// Fleet domain: the broadcast-population sampler's per-receiver streams
// (internal/fleet). Values are frozen; see the package comment.
const (
	FleetSize       Stage = 1
	FleetStart      Stage = 2
	FleetExposure   Stage = 3
	FleetNoise      Stage = 4
	FleetProfile    Stage = 5
	FleetCamSeed    Stage = 6
	FleetImpairSeed Stage = 7
)

// Mix collapses one (seed, stage, index) cell to a stream seed with a
// splitmix64-style finalizer, so adjacent stages and adjacent indices
// land far apart in seed space. The arithmetic is bit-for-bit the
// finalizer impair.Stack and fleet.Population shipped with; changing any
// constant here changes every seeded outcome in the tree.
func Mix(seed int64, stage Stage, index int) int64 {
	h := uint64(seed) ^ uint64(stage)*0x9E3779B97F4A7C15
	h += uint64(index) * 0xBF58476D1CE4E5B9
	h ^= h >> 31
	h *= 0x94D049BB133111EB
	h ^= h >> 29
	return int64(h)
}

// Rand returns the random stream of one (seed, stage, index) cell. Each
// call returns an independent generator positioned at the stream's
// start, so consuming one cell's stream never advances another's. It
// allocates a fresh math/rand generator, so the per-capture streams use
// Stream instead; fleet.Population keeps Rand because it draws Intn and
// Int63, which Stream does not offer, once per receiver.
func Rand(seed int64, stage Stage, index int) *rand.Rand {
	return rand.New(rand.NewSource(Mix(seed, stage, index)))
}
