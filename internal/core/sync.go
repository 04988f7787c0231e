package core

import (
	"math"

	"inframe/internal/frame"
)

// EstimatePhase recovers the data-frame boundary phase from captured frames
// alone, for receivers without genie timing (the paper's controlled setup
// implies known timing; this utility covers free-running operation).
//
// The observable is each capture's high-spatial-frequency energy. With the
// square-root raised-cosine smoothing, a block transitioning between bits
// carries |cos|+|sin| ≥ 1 of the steady chessboard amplitude, so captures
// landing in the transition half of a data period read *hotter* than
// captures in the steady half (≈14% for random data, where half the blocks
// change each frame). Scanning candidate phases and correlating the energy
// series against that hot-transition/cool-steady template peaks at the true
// phase. (A stair envelope produces no contrast — the estimator requires a
// smooth transition shape.)
//
// period is the data frame duration in seconds (τ/refresh). The returned
// phase is in [0, period).
func EstimatePhase(caps []*frame.Frame, times []float64, exposure, period float64, grid int) float64 {
	if len(caps) == 0 || len(caps) != len(times) || grid <= 0 || period <= 0 {
		return 0
	}
	energies := make([]float64, len(caps))
	for i, f := range caps {
		energies[i] = frame.HighFreqEnergy(f, 1)
	}
	bestPhase, bestScore := 0.0, math.Inf(-1)
	for g := 0; g < grid; g++ {
		phase := period * float64(g) / float64(grid)
		var steady, hot float64
		var nSteady, nHot int
		for i, t := range times {
			mid := t + float64(exposure/2) - phase
			frac := math.Mod(mid, period)
			if frac < 0 {
				frac += period
			}
			switch {
			case frac >= 0.05*period && frac <= 0.45*period:
				steady += energies[i]
				nSteady++
			case frac >= 0.55*period && frac <= 0.95*period:
				hot += energies[i]
				nHot++
			}
		}
		if nSteady == 0 || nHot == 0 {
			continue
		}
		if score := hot/float64(nHot) - steady/float64(nSteady); score > bestScore {
			bestScore = score
			bestPhase = phase
		}
	}
	return bestPhase
}

// PhaseError returns the circular distance between two phases modulo period.
func PhaseError(a, b, period float64) float64 {
	d := math.Mod(math.Abs(a-b), period)
	if d > period/2 {
		d = period - d
	}
	return d
}
