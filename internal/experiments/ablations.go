package experiments

import (
	"bytes"
	"fmt"
	"io"

	"inframe/internal/channel"
	"inframe/internal/code/rs"
	"inframe/internal/core"
	"inframe/internal/link"
)

// BandRow is one confidence-band sweep point (ablation A3: the
// availability/error trade-off behind the threshold T of §3.3).
type BandRow struct {
	Band           float64
	AvailableRatio float64
	ErrorRate      float64
}

// ThresholdSweep sweeps the receiver's absolute confidence band on the
// sun-rise video at the paper's δ=20, τ=12 point: one transmission, decoded
// once per band.
func ThresholdSweep(s Setup) ([]BandRow, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	e, err := s.transmit(ThroughputSetting{VideoClip, 20, 12}, s.ChannelConfig(s.CaptureSize()))
	if err != nil {
		return nil, err
	}
	var out []BandRow
	for _, band := range []float64{0.05, 0.15, 0.3, 0.6, 1.0, 1.5} {
		d, err := e.decode(func(rc *core.ReceiverConfig) { rc.MinConfidence = band })
		if err != nil {
			return nil, err
		}
		out = append(out, BandRow{Band: band, AvailableRatio: d.perf.AvailableRatio, ErrorRate: d.perf.ErrorRate})
	}
	return out, nil
}

// WriteBands prints the threshold sweep.
func WriteBands(w io.Writer, rows []BandRow) {
	fmt.Fprintf(w, "%6s | %9s %8s\n", "band", "available", "err-rate")
	for _, r := range rows {
		fmt.Fprintf(w, "%6.2f | %8.1f%% %7.2f%%\n", r.Band, 100*r.AvailableRatio, 100*r.ErrorRate)
	}
}

// ShutterRow is one rolling-shutter/exposure variant (ablation A4).
type ShutterRow struct {
	Name           string
	AvailableRatio float64
	ErrorRate      float64
	ThroughputBps  float64
}

// ShutterAblation compares shutter regimes on the gray video: the default
// rolling shutter, a global shutter, a long exposure near one refresh
// period, and a pair-spanning exposure that cancels the chessboard.
func ShutterAblation(s Setup) ([]ShutterRow, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	variants := []struct {
		name  string
		tweak func(*channel.Config)
	}{
		{"rolling (default)", nil},
		{"global shutter", func(c *channel.Config) { c.Camera.ReadoutTime = 0 }},
		{"exposure 5ms", func(c *channel.Config) { c.Camera.Exposure = 0.005 }},
		{"exposure 16.7ms (pair)", func(c *channel.Config) { c.Camera.Exposure = 2.0 / 120 }},
	}
	var out []ShutterRow
	for _, v := range variants {
		// The receiver's timing model follows the camera tweak: the
		// episode's receiver comes from its link.
		cfg := s.ChannelConfig(s.CaptureSize())
		if v.tweak != nil {
			v.tweak(&cfg)
		}
		e, err := s.transmit(ThroughputSetting{VideoGray, 20, 12}, cfg)
		if err != nil {
			return nil, err
		}
		d, err := e.decode(nil)
		if err != nil {
			return nil, err
		}
		out = append(out, ShutterRow{
			Name:           v.name,
			AvailableRatio: d.perf.AvailableRatio,
			ErrorRate:      d.perf.ErrorRate,
			ThroughputBps:  d.perf.ThroughputBps,
		})
	}
	return out, nil
}

// WriteShutter prints the shutter ablation.
func WriteShutter(w io.Writer, rows []ShutterRow) {
	fmt.Fprintf(w, "%-24s | %9s %8s %11s\n", "shutter", "available", "err-rate", "throughput")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s | %8.1f%% %7.2f%% %8.2fkbps\n",
			r.Name, 100*r.AvailableRatio, 100*r.ErrorRate, r.ThroughputBps/1000)
	}
}

// NoiseRow is one sensor-noise sweep point (ablation A6: capture quality /
// distance proxy).
type NoiseRow struct {
	Sigma          float64
	AvailableRatio float64
	ErrorRate      float64
	ThroughputBps  float64
}

// NoiseSweep sweeps the camera read noise on the gray video.
func NoiseSweep(s Setup) ([]NoiseRow, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var out []NoiseRow
	for _, sigma := range []float64{0, 2.5, 5, 8, 12} {
		cfg := s.ChannelConfig(s.CaptureSize())
		cfg.Camera.NoiseSigma = sigma
		e, err := s.transmit(ThroughputSetting{VideoGray, 20, 12}, cfg)
		if err != nil {
			return nil, err
		}
		d, err := e.decode(nil)
		if err != nil {
			return nil, err
		}
		out = append(out, NoiseRow{
			Sigma:          sigma,
			AvailableRatio: d.perf.AvailableRatio,
			ErrorRate:      d.perf.ErrorRate,
			ThroughputBps:  d.perf.ThroughputBps,
		})
	}
	return out, nil
}

// WriteNoise prints the noise sweep.
func WriteNoise(w io.Writer, rows []NoiseRow) {
	fmt.Fprintf(w, "%6s | %9s %8s %11s\n", "sigma", "available", "err-rate", "throughput")
	for _, r := range rows {
		fmt.Fprintf(w, "%6.1f | %8.1f%% %7.2f%% %8.2fkbps\n",
			r.Sigma, 100*r.AvailableRatio, 100*r.ErrorRate, r.ThroughputBps/1000)
	}
}

// DetectorRow compares bit detectors (energy vs matched filter).
type DetectorRow struct {
	Detector       string
	AvailableRatio float64
	ErrorRate      float64
}

// DetectorAblation compares the paper's energy detector with the matched
// filter on the textured sun-rise clip, both decoding one transmission.
func DetectorAblation(s Setup) ([]DetectorRow, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	e, err := s.transmit(ThroughputSetting{VideoClip, 20, 12}, s.ChannelConfig(s.CaptureSize()))
	if err != nil {
		return nil, err
	}
	var out []DetectorRow
	for _, det := range []core.Detector{core.DetectorEnergy, core.DetectorMatched} {
		d, err := e.decode(func(rc *core.ReceiverConfig) { rc.Detector = det })
		if err != nil {
			return nil, err
		}
		out = append(out, DetectorRow{
			Detector:       det.String(),
			AvailableRatio: d.perf.AvailableRatio,
			ErrorRate:      d.perf.ErrorRate,
		})
	}
	return out, nil
}

// WriteDetectors prints the detector ablation.
func WriteDetectors(w io.Writer, rows []DetectorRow) {
	fmt.Fprintf(w, "%-10s | %9s %8s\n", "detector", "available", "err-rate")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s | %8.1f%% %7.2f%%\n", r.Detector, 100*r.AvailableRatio, 100*r.ErrorRate)
	}
}

// CodingRow compares GOB protection schemes (ablation A5: the §3.3 "more
// sophisticated error correction codes" future work).
type CodingRow struct {
	Scheme string
	// FrameSuccessRatio is the fraction of data frames delivered intact.
	FrameSuccessRatio float64
	// GoodputBps is the verified delivered rate under the scheme.
	GoodputBps float64
}

// CodingAblation replays the gray channel's measured per-Block outcomes
// under two equal-rate protections: the paper's XOR parity (detection only;
// a frame's GOB survives if available and clean) and an RS(250,187) code
// over the frame's Block bits, where undecided Blocks become erasures and
// wrong Blocks become symbol errors. Gray is the right substrate: with the
// sun-rise clip ~40% of GOBs are unavailable and no per-frame code of this
// rate can recover a frame, while on gray the RS code turns scattered
// losses into complete frames.
func CodingAblation(s Setup) ([]CodingRow, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	setting := ThroughputSetting{VideoGray, 20, 12}
	e, err := s.transmit(setting, s.ChannelConfig(s.CaptureSize()))
	if err != nil {
		return nil, err
	}
	d, err := e.decode(nil)
	if err != nil {
		return nil, err
	}
	l, rep, decoded := e.p.Layout, d.perf, d.frames

	// RS replay: 1500 Block bits → 187 data bytes striped into one
	// RS(250,187) codeword per frame (catching the same 25% redundancy as
	// 1 parity Block per 4).
	const n, k = 250, 187
	code, err := rs.New(n, k)
	if err != nil {
		return nil, err
	}
	frameRate := 120.0 / float64(setting.Tau)
	success := 0
	for _, fd := range decoded {
		sent := e.stream.DataFrame(fd.Index)
		// Transmitted codeword: the frame's raw 1500 Block bits are the
		// data portion (zero-padded to 187 bytes), parity appended.
		dataBytes := link.BitsToBytes(padBits(sent.Bits, k*8))
		cw, err := code.Encode(dataBytes)
		if err != nil {
			return nil, err
		}
		// Receiver view: symbol erasures where any constituent Block was
		// undecided; symbol errors happen implicitly where bits flipped.
		recv := append([]byte(nil), cw...)
		recvBits := padBits(fd.Bits.Bits, k*8)
		var erasures []int
		for b := 0; b < k; b++ {
			anyUndecided := false
			var v byte
			for j := 0; j < 8; j++ {
				idx := b*8 + j
				if idx < len(fd.Decided) && !fd.Decided[idx] {
					anyUndecided = true
				}
				if recvBits[b*8+j] {
					v |= 1 << (7 - j)
				}
			}
			recv[b] = v
			if anyUndecided {
				erasures = append(erasures, b)
			}
		}
		if got, err := code.Decode(recv, capErasures(erasures, code.Parity())); err == nil && bytes.Equal(got, dataBytes) {
			success++
		}
	}
	frameBits := float64(l.NumBlocks()) * float64(k) / float64(n) // equal-rate accounting
	rsGoodput := frameRate * frameBits * float64(success) / float64(len(decoded))
	return []CodingRow{
		{
			Scheme:            "XOR parity (paper)",
			FrameSuccessRatio: rep.AvailableRatio * (1 - rep.ErrorRate),
			GoodputBps:        rep.GoodputBps,
		},
		{
			Scheme:            "RS(250,187) per frame",
			FrameSuccessRatio: float64(success) / float64(len(decoded)),
			GoodputBps:        rsGoodput,
		},
	}, nil
}

// padBits copies bits into a new slice of exactly n entries.
func padBits(bits []bool, n int) []bool {
	out := make([]bool, n)
	copy(out, bits)
	return out
}

// capErasures truncates the erasure list to the code's capacity; beyond it
// the decode fails anyway, and shorter lists keep Decode's pre-checks quiet.
func capErasures(erasures []int, parity int) []int {
	if len(erasures) > parity {
		return erasures[:parity]
	}
	return erasures
}

// WriteCoding prints the coding ablation.
func WriteCoding(w io.Writer, rows []CodingRow) {
	fmt.Fprintf(w, "%-24s | %13s %11s\n", "scheme", "frame-success", "goodput")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s | %12.1f%% %8.2fkbps\n", r.Scheme, 100*r.FrameSuccessRatio, r.GoodputBps/1000)
	}
}

// PixelSizeRow is one Pixel-pitch ablation point (ablation A2: §3.3's
// "properly selected p … minimal Phantom Array effect").
type PixelSizeRow struct {
	// PitchPaperPx is the Pixel size in paper-scale (1080p) pixels.
	PitchPaperPx int
	Mean, Std    float64
}

// PixelSizeAblation rates flicker for Pixel pitches around the paper's
// p=4 using a stair envelope (phantom-array dominated stimulus).
func PixelSizeAblation(s Setup) ([]PixelSizeRow, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var out []PixelSizeRow
	for _, paperP := range []int{1, 2, 4, 8, 16} {
		p := paperP / s.ScaleDiv
		if p < 1 {
			p = 1
		}
		mean, std, err := s.ratePixelPitch(p, float64(paperP))
		if err != nil {
			return nil, err
		}
		out = append(out, PixelSizeRow{PitchPaperPx: paperP, Mean: mean, Std: std})
	}
	return out, nil
}

// WritePixelSizes prints the Pixel-pitch ablation.
func WritePixelSizes(w io.Writer, rows []PixelSizeRow) {
	fmt.Fprintf(w, "%8s | %6s %6s\n", "pitch-px", "mean", "std")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d | %6.2f %6.2f\n", r.PitchPaperPx, r.Mean, r.Std)
	}
}
