package main

import (
	"time"

	"inframe/internal/frame"
	"inframe/internal/video"
)

// span is one timed layer call of the traced pass. Parent indexes the
// enclosing span in the tracer's list (-1 for a root); AllocBytes is the
// heap allocation the call made, children included, read from
// runtime/metrics around the call. The traced run is sequential, so nothing else
// allocates in between and the attribution is exact.
type span struct {
	Name       string `json:"name"`
	Episode    int    `json:"episode"`
	Parent     int    `json:"parent"`
	StartNs    int64  `json:"start_ns"`
	EndNs      int64  `json:"end_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

// tracer records spans in memory. A nil *tracer records nothing, so set-up
// code shared by the traced and untraced passes calls it unconditionally.
type tracer struct {
	origin  time.Time
	episode int
	spans   []span
	open    []int
	allocs  *allocGauge
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), episode: -1, allocs: newAllocGauge()}
}

// begin opens a span named after the layer call it wraps and returns its
// handle for end. The allocation counter is read after the span list grows
// and before the clock starts, so neither the tracer's own bookkeeping nor
// the counter read lands inside the span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Episode: t.episode, Parent: parent})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	t.spans[i].AllocBytes = t.allocs.read()
	t.spans[i].StartNs = time.Since(t.origin).Nanoseconds()
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	s := &t.spans[i]
	s.EndNs = now
	s.AllocBytes = t.allocs.read() - s.AllocBytes
	if n := len(t.open); n == 0 || t.open[n-1] != i {
		panic("inframe-perf: span closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
}

// unwind closes every span opened above depth, so an episode that returns
// early on an error leaves the stack as it found it.
func (t *tracer) unwind(depth int) {
	if t == nil {
		return
	}
	for len(t.open) > depth {
		t.end(t.open[len(t.open)-1])
	}
}

// layerTotals is one span name's summed self time and self allocation.
type layerTotals struct {
	selfNs, selfAlloc int64
	calls             int
}

// totals sums self time (span minus its children) and self allocation per
// span name; episodesOnly leaves out set-up spans.
func (t *tracer) totals(episodesOnly bool) map[string]*layerTotals {
	childNs := make([]int64, len(t.spans))
	childAlloc := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += s.EndNs - s.StartNs
			childAlloc[s.Parent] += int64(s.AllocBytes)
		}
	}
	by := make(map[string]*layerTotals)
	for i, s := range t.spans {
		if episodesOnly && s.Episode < 0 {
			continue
		}
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			by[s.Name] = lt
		}
		lt.selfNs += s.EndNs - s.StartNs - childNs[i]
		lt.selfAlloc += int64(s.AllocBytes) - childAlloc[i]
		lt.calls++
	}
	return by
}

// timedSource times the video layer inside the multiplexer. It keeps the
// wrapped source's IntoSource capability, and timedRegionSource adds
// RegionSource when the source has it, so the multiplexer takes the same
// render paths and its RenderStats stay identical to an untraced run.
type timedSource struct {
	video.IntoSource
	tr *tracer
}

func (s timedSource) Frame(i int) *frame.Frame {
	sp := s.tr.begin("video.frame")
	f := s.IntoSource.Frame(i)
	s.tr.end(sp)
	return f
}

func (s timedSource) FrameInto(i int, dst *frame.Frame) {
	sp := s.tr.begin("video.frame")
	s.IntoSource.FrameInto(i, dst)
	s.tr.end(sp)
}

type timedRegionSource struct {
	timedSource
	rs video.RegionSource
}

func (s timedRegionSource) DirtyRegion(i int) (video.Region, bool) { return s.rs.DirtyRegion(i) }

// video wraps src in the timing decorator; a nil tracer returns src as is.
func (t *tracer) video(src video.IntoSource) video.Source {
	if t == nil {
		return src
	}
	ts := timedSource{IntoSource: src, tr: t}
	if rs, ok := src.(video.RegionSource); ok {
		return timedRegionSource{timedSource: ts, rs: rs}
	}
	return ts
}
