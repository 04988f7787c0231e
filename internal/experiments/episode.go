package experiments

import (
	"inframe/internal/channel"
	"inframe/internal/core"
	"inframe/internal/metrics"
)

// episode is one transmission of the evaluation pipeline (§4, Fig. 7): a
// setting's multiplexed stream shown at 120 Hz and filmed through a link.
// Every decode experiment is one episode plus the decodes it compares.
type episode struct {
	p      core.Params
	link   channel.Config
	stream *core.RandomStream
	res    *channel.Result
	// nData counts the data frames whose steady window the displayed
	// stream covers.
	nData int
}

// transmit multiplexes setting's video with the seeded random payload at
// the setting's δ and τ and films ThroughputSeconds of it through link —
// the standard link (ChannelConfig), with the caller's adjustments.
func (s Setup) transmit(setting ThroughputSetting, link channel.Config) (*episode, error) {
	l, err := s.layout()
	if err != nil {
		return nil, err
	}
	p := core.DefaultParams(l)
	p.Delta = setting.Delta
	p.Tau = setting.Tau
	p.Workers = s.Workers
	stream := core.NewRandomStream(l, s.Seed)
	m, err := core.NewMultiplexer(p, setting.Video.source(l, s.Seed), stream)
	if err != nil {
		return nil, err
	}
	nDisplay := int(s.ThroughputSeconds * link.Display.RefreshHz)
	res, err := channel.Simulate(m, nDisplay, link)
	if err != nil {
		return nil, err
	}
	return &episode{p: p, link: link, stream: stream, res: res, nData: nDisplay / p.Tau}, nil
}

// decoding is one receiver's pass over an episode's captures.
type decoding struct {
	// frames holds every data frame a capture reached, in index order;
	// tail frames past the last capture and timing gaps are left out.
	frames []*core.FrameDecode
	// stats scores frames against the transmitted payload.
	stats metrics.GOBStats
	// perf is Fig. 7's accounting of stats at the link's refresh rate.
	perf metrics.Report
	// report is the decoder's graceful-degradation companion.
	report *core.DecodeReport
}

// decode runs the link's receiver, after tweak (if non-nil) adjusts it,
// over the episode's captures and scores every data frame a capture
// reached against the oracle.
func (e *episode) decode(tweak func(*core.ReceiverConfig)) (*decoding, error) {
	rcfg := e.link.Receiver(e.p)
	if tweak != nil {
		tweak(&rcfg)
	}
	rcv, err := core.NewReceiver(rcfg)
	if err != nil {
		return nil, err
	}
	decoded, rep := rcv.DecodeCapturesReport(e.res.Captures, e.res.Times, e.res.Exposure, e.nData)
	d := &decoding{report: rep}
	for _, fd := range decoded {
		if fd.Captures == 0 {
			continue
		}
		d.stats.AddWithOracle(fd, e.stream.DataFrame(fd.Index))
		d.frames = append(d.frames, fd)
	}
	d.perf = metrics.Compute(&d.stats, e.p.Layout, e.p.Tau, e.link.Display.RefreshHz)
	return d, nil
}
