package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"

	"inframe/internal/core"
	"inframe/internal/fleet"
	"inframe/internal/metrics"
)

// outcome is one episode scored against the transmitted payload.
type outcome struct {
	// avail is the GOB availability (fleet: mean over receivers).
	avail float64
	// wrong and decided count confidently decided Blocks and the wrong ones
	// among them (single-receiver workloads); ber is the fleet's mean
	// per-receiver rate.
	wrong, decided int
	ber            float64
	// digest hashes every decoded bit, decision and GOB cause (fleet: every
	// receiver's result), so two decodes agree exactly when digests do.
	digest uint64
	render core.RenderStats
	// projective and cornerPx echo the decode report's registration.
	projective bool
	cornerPx   float64
	// scheduled/delivered captures, scored/excluded captures and gap frames
	// summed over the episode's receivers.
	scheduled, delivered int
	scored, excluded     int
	gapFrames            int
	// neverDecoded counts receivers that delivered no GOB; ttfd holds the
	// time to first decode of the others (fleet).
	neverDecoded int
	ttfd         []float64
	// fail says why the episode failed; empty when it did not.
	fail string
}

func (b *bench) score(ep *episode) outcome {
	o := outcome{render: ep.render, scheduled: ep.scheduled, delivered: ep.delivered}
	h := fnv.New64a()
	if b.fleet > 0 {
		var avail, ber metrics.Series
		for _, r := range ep.receivers {
			hashReceiver(h, r)
			avail.Add(r.Avail)
			ber.Add(r.BER)
			o.gapFrames += r.GapFrames
			if r.Decoded {
				o.ttfd = append(o.ttfd, r.TTFD)
			} else {
				o.neverDecoded++
			}
		}
		o.avail, o.ber = avail.Mean(), ber.Mean()
	} else {
		var st metrics.GOBStats
		for _, fd := range ep.frames {
			hashFrame(h, fd)
			if fd.Captures == 0 {
				o.gapFrames++
				continue
			}
			sent := ep.stream.DataFrame(fd.Index)
			st.AddWithOracle(fd, sent)
			w, n := bitErrors(fd, sent)
			o.wrong += w
			o.decided += n
		}
		o.avail = st.AvailableRatio()
		if o.decided > 0 {
			o.ber = float64(o.wrong) / float64(o.decided)
		}
	}
	o.digest = h.Sum64()
	if rep := ep.report; rep != nil {
		o.projective = rep.Registration.Projective
		o.cornerPx = rep.Registration.MaxCornerOffsetPx
		o.excluded = rep.ExcludedCaptures
		for _, q := range rep.Quality {
			if q.Scored {
				o.scored++
			}
		}
	}
	switch {
	case !(o.avail > 0):
		o.fail = "no available GOB"
	case b.calibrate && !o.projective:
		o.fail = "registration path is not projective"
	}
	return o
}

func hashFrame(h hash.Hash64, fd *core.FrameDecode) {
	writeInts(h, fd.Index, fd.Captures)
	buf := make([]byte, 0, 2*len(fd.Decided)+3*len(fd.GOBs))
	for j, d := range fd.Decided {
		buf = append(buf, b2u(fd.Bits.Bits[j]), b2u(d))
	}
	for _, g := range fd.GOBs {
		buf = append(buf, b2u(g.Available), b2u(g.ParityOK), byte(g.Cause))
	}
	h.Write(buf)
}

func hashReceiver(h hash.Hash64, r fleet.ReceiverResult) {
	writeInts(h, r.Index, r.CaptureW, r.CaptureH, r.Captures, r.GapFrames, r.Resyncs)
	h.Write([]byte(r.Profile))
	for _, f := range []float64{r.Start, r.Avail, r.BER, r.TTFD} {
		writeInts(h, int(math.Float64bits(f)))
	}
	h.Write([]byte{b2u(r.Decoded)})
}

func writeInts(h hash.Hash64, vs ...int) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
}

func b2u(v bool) byte {
	if v {
		return 1
	}
	return 0
}
