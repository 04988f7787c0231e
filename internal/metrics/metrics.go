// Package metrics accounts the secondary-channel performance figures the
// paper reports in Fig. 7: throughput, available-GOB ratio and GOB error
// rate, plus oracle-verified goodput and summary statistics.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"inframe/internal/core"
)

// GOBStats accumulates per-GOB outcomes across decoded data frames.
type GOBStats struct {
	// Frames is how many data frames were decoded.
	Frames int
	// Total is the number of GOB observations (frames × GOBs per frame).
	Total int
	// Available counts GOBs whose Blocks all decoded (§4).
	Available int
	// Erroneous counts available GOBs failing parity.
	Erroneous int
	// OracleCorrect counts available, parity-clean GOBs whose data bits
	// all match the transmitted frame (requires AddWithOracle).
	OracleCorrect int
	// oracle notes whether oracle information was supplied.
	oracle bool
}

// Add accumulates one decoded frame without ground truth.
func (s *GOBStats) Add(fd *core.FrameDecode) {
	s.Frames++
	s.Total += len(fd.GOBs)
	s.Available += fd.AvailableGOBs()
	s.Erroneous += fd.ErroneousGOBs()
}

// AddWithOracle accumulates one decoded frame and verifies every available,
// parity-clean GOB against the transmitted data frame.
func (s *GOBStats) AddWithOracle(fd *core.FrameDecode, sent *core.DataFrame) {
	s.Add(fd)
	s.oracle = true
	l := sent.Layout
	for _, g := range fd.GOBs {
		if !g.Available || !g.ParityOK {
			continue
		}
		good := true
		for _, blk := range l.GOBBlocks(g.GX, g.GY) {
			if fd.Bits.Bit(blk[0], blk[1]) != sent.Bit(blk[0], blk[1]) {
				good = false
				break
			}
		}
		if good {
			s.OracleCorrect++
		}
	}
}

// AvailableRatio returns available/total (0 when empty).
func (s *GOBStats) AvailableRatio() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Available) / float64(s.Total)
}

// ErrorRate returns erroneous/available (0 when nothing was available).
func (s *GOBStats) ErrorRate() float64 {
	if s.Available == 0 {
		return 0
	}
	return float64(s.Erroneous) / float64(s.Available)
}

// Report is the Fig. 7 row for one experimental setting.
type Report struct {
	// ThroughputBps follows the paper's accounting: data frame rate ×
	// data bits per frame × available ratio × (1 − error rate).
	ThroughputBps float64
	// GoodputBps is the oracle-verified rate: only GOBs whose decoded
	// data bits match the transmission count (0 if no oracle was used).
	GoodputBps float64
	// RawBps is the channel's nominal rate with every GOB delivered.
	RawBps float64
	// AvailableRatio and ErrorRate echo the GOB statistics.
	AvailableRatio float64
	ErrorRate      float64
}

// Compute derives the report from accumulated statistics and the channel
// parameters: refresh rate (Hz), smoothing cycle τ (display frames per data
// frame) and the layout's data bits per frame.
func Compute(s *GOBStats, layout core.Layout, tau int, refreshHz float64) Report {
	frameRate := refreshHz / float64(tau)
	bitsPerGOB := float64(layout.BlocksPerGOB() - 1)
	raw := frameRate * bitsPerGOB * float64(layout.NumGOBs())
	r := Report{
		RawBps:         raw,
		AvailableRatio: s.AvailableRatio(),
		ErrorRate:      s.ErrorRate(),
	}
	r.ThroughputBps = raw * r.AvailableRatio * (1 - r.ErrorRate)
	if s.oracle && s.Total > 0 {
		r.GoodputBps = raw * float64(s.OracleCorrect) / float64(s.Total)
	}
	return r
}

// String renders the report in the spirit of a Fig. 7 annotation.
func (r Report) String() string {
	return fmt.Sprintf("throughput=%.1fkbps avail=%.1f%% err=%.1f%% raw=%.1fkbps goodput=%.1fkbps",
		r.ThroughputBps/1000, 100*r.AvailableRatio, 100*r.ErrorRate, r.RawBps/1000, r.GoodputBps/1000)
}

// DegradationStats accumulates the graceful-degradation figures of decoded
// runs: how many GOBs were erased and why, how the link quality evolved, and
// how often the receiver lost and regained the capture stream. It is the
// metrics-side companion of core.DecodeReport.
type DegradationStats struct {
	// Runs counts accumulated reports.
	Runs int
	// Causes tallies GOB outcomes by erasure cause; index with
	// core.ErasureCause (core.CauseNone counts delivered GOBs).
	Causes [core.NumErasureCauses]int
	// GapFrames, Resyncs and ExcludedCaptures sum the reports' counters.
	GapFrames        int
	Resyncs          int
	ExcludedCaptures int
	// Quality collects the per-capture link-quality scores of every scored
	// capture across runs.
	Quality Series
}

// AddReport accumulates one decode report. A nil report is a no-op: a
// fleet receiver that produced nothing (camera started past the rendered
// stream, decode path bailed) must not crash the aggregation or count as a
// run.
func (d *DegradationStats) AddReport(rep *core.DecodeReport) {
	if rep == nil {
		return
	}
	d.Runs++
	counts := rep.CauseCounts()
	for c, n := range counts {
		d.Causes[c] += n
	}
	d.GapFrames += rep.GapFrames
	d.Resyncs += rep.Resyncs
	d.ExcludedCaptures += rep.ExcludedCaptures
	for _, q := range rep.Quality {
		if q.Scored {
			d.Quality.Add(q.Quality)
		}
	}
}

// Merge folds another accumulation into d, for combining per-receiver
// statistics gathered independently (each fleet receiver accumulates its
// own DegradationStats, then the harness merges them in receiver-index
// order). Counter fields sum; the quality series concatenates in the
// other's observation order, so merging a fixed sequence of stats in a
// fixed order yields a bit-identical aggregate — float sums in Mean/Std
// depend on observation order, which is why callers must merge in a
// deterministic order (by receiver index, never map iteration). A nil
// other is a no-op.
func (d *DegradationStats) Merge(other *DegradationStats) {
	if other == nil {
		return
	}
	d.Runs += other.Runs
	for c := range other.Causes {
		d.Causes[c] += other.Causes[c]
	}
	d.GapFrames += other.GapFrames
	d.Resyncs += other.Resyncs
	d.ExcludedCaptures += other.ExcludedCaptures
	d.Quality.AddSeries(&other.Quality)
}

// TotalGOBs returns the number of GOB observations across all reports.
func (d *DegradationStats) TotalGOBs() int {
	n := 0
	for _, c := range d.Causes {
		n += c
	}
	return n
}

// DeliveredRatio returns the fraction of GOB observations that decoded and
// passed parity (0 when empty).
func (d *DegradationStats) DeliveredRatio() float64 {
	total := d.TotalGOBs()
	if total == 0 {
		return 0
	}
	return float64(d.Causes[core.CauseNone]) / float64(total)
}

// String renders the erasure breakdown and degradation counters on one line.
func (d *DegradationStats) String() string {
	total := d.TotalGOBs()
	if total == 0 {
		return "degradation: no GOBs observed"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "delivered=%.1f%%", 100*d.DeliveredRatio())
	for c := core.CauseParity; int(c) < core.NumErasureCauses; c++ {
		if n := d.Causes[c]; n > 0 {
			fmt.Fprintf(&b, " %s=%.1f%%", c, 100*float64(n)/float64(total))
		}
	}
	fmt.Fprintf(&b, " gaps=%d resyncs=%d excluded=%d quality=%.2f",
		d.GapFrames, d.Resyncs, d.ExcludedCaptures, d.Quality.Mean())
	return b.String()
}

// Series summarizes repeated scalar measurements.
type Series struct{ xs []float64 }

// Add appends one observation.
func (s *Series) Add(x float64) { s.xs = append(s.xs, x) }

// AddSeries appends every observation of other, in other's order. A nil
// other is a no-op.
func (s *Series) AddSeries(other *Series) {
	if other == nil {
		return
	}
	s.xs = append(s.xs, other.xs...)
}

// Percentile returns the exact p-quantile (p in [0, 1]) by sort-then-index
// over a copy of the observations: nearest-rank, idx = ceil(p·n)−1, so
// Percentile(0.5) of [1 2 3 4] is 2 and Percentile(1) is the maximum. No
// interpolation, no map iteration — the value returned is always one of
// the observations, chosen deterministically. An empty series returns 0
// (matching Mean's empty convention); p outside [0, 1] panics.
func (s *Series) Percentile(p float64) float64 {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("metrics: percentile %v outside [0,1]", p))
	}
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	sorted := make([]float64, n)
	copy(sorted, s.xs)
	sort.Float64s(sorted)
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// N returns the observation count.
func (s *Series) N() int { return len(s.xs) }

// Mean returns the sample mean (0 when empty).
func (s *Series) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Std returns the population standard deviation (0 when empty).
func (s *Series) Std() float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	m := s.Mean()
	var acc float64
	for _, x := range s.xs {
		d := x - m
		acc += float64(d * d)
	}
	return math.Sqrt(acc / float64(n))
}

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval on the mean (0 for fewer than 2 observations).
func (s *Series) CI95() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	// Sample std (n−1) for the interval.
	m := s.Mean()
	var acc float64
	for _, x := range s.xs {
		d := x - m
		acc += float64(d * d)
	}
	sd := math.Sqrt(acc / float64(n-1))
	return 1.96 * sd / math.Sqrt(float64(n))
}
