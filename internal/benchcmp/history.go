package benchcmp

// The history report: every committed BENCH_*.json read in date order and
// rendered as one trend table per benchmark column, so a PR that updates
// the baseline also shows where the number came from. Unlike the gate
// (Load/Compare), history reading is lenient about schema age — v1 files
// predate the alloc columns and still anchor the ns/op trend.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// schemaV1 is the original baseline format: ns/op only.
const schemaV1 = "inframe-bench-baseline/v1"

// LoadAny reads a baseline file accepting any schema this package has
// ever written; v1 entries simply carry zero alloc columns.
func LoadAny(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("benchcmp: parsing %s: %w", path, err)
	}
	switch b.Schema {
	case Schema, schemaV1:
	default:
		return nil, fmt.Errorf("benchcmp: %s has unknown schema %q", path, b.Schema)
	}
	if len(b.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchcmp: %s contains no benchmarks", path)
	}
	return &b, nil
}

// History is the chronological sequence of committed baselines.
type History struct {
	// Files holds the baseline file names, lexical (= date) order.
	Files []string
	// Baselines holds the parsed files, aligned with Files.
	Baselines []*Baseline
}

// LoadHistory loads every BENCH_*.json in dir. The files are
// date-stamped, so lexical order is chronological order.
func LoadHistory(dir string) (*History, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, "BENCH_") && strings.HasSuffix(name, ".json") {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("benchcmp: no BENCH_*.json baselines in %s", dir)
	}
	sort.Strings(names)
	h := &History{}
	for _, name := range names {
		b, err := LoadAny(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		h.Files = append(h.Files, name)
		h.Baselines = append(h.Baselines, b)
	}
	return h, nil
}

// Names returns the union of benchmark names across the history in
// first-seen order, so columns stay stable as benchmarks are added.
func (h *History) Names() []string {
	var names []string
	seen := make(map[string]bool)
	for _, b := range h.Baselines {
		for _, e := range b.Benchmarks {
			if !seen[e.Name] {
				seen[e.Name] = true
				names = append(names, e.Name)
			}
		}
	}
	return names
}

// entry returns baseline i's result for name, nil when the file predates
// the benchmark.
func (h *History) entry(i int, name string) *Entry {
	for j := range h.Baselines[i].Benchmarks {
		if h.Baselines[i].Benchmarks[j].Name == name {
			return &h.Baselines[i].Benchmarks[j]
		}
	}
	return nil
}

// WriteMarkdown renders the trend table as a GitHub-flavored pipe table
// (equally readable in a terminal): one row per baseline file with ns/op
// and the delta against the previous file carrying that benchmark, and a
// closing newest-vs-oldest row summarizing the series. A file that times a
// different link than the one before it opens a new series: a "link"
// row marks the break, deltas never reach across it, and the closing row
// covers only the newest link's files.
func (h *History) WriteMarkdown(w io.Writer) {
	names := h.Names()
	fmt.Fprint(w, "| baseline |")
	for _, n := range names {
		fmt.Fprintf(w, " %s | Δ |", n)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, "|---|")
	for range names {
		fmt.Fprint(w, "---:|---:|")
	}
	fmt.Fprintln(w)
	for i, file := range h.Files {
		if i > 0 && h.Baselines[i].Link != h.Baselines[i-1].Link {
			fmt.Fprintf(w, "| link: %s → %s |\n", linkName(h.Baselines[i-1].Link), linkName(h.Baselines[i].Link))
		}
		fmt.Fprintf(w, "| %s |", strings.TrimSuffix(strings.TrimPrefix(file, "BENCH_"), ".json"))
		for _, n := range names {
			e := h.entry(i, n)
			if e == nil {
				fmt.Fprint(w, " — | — |")
				continue
			}
			fmt.Fprintf(w, " %s |", formatNs(e.NsPerOp))
			if prev := h.previous(i, n); prev != nil {
				fmt.Fprintf(w, " %s |", formatDelta(prev.NsPerOp, e.NsPerOp))
			} else {
				fmt.Fprint(w, " — |")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprint(w, "| newest vs oldest |")
	for _, n := range names {
		first, last := h.bookends(n)
		if first == nil || last == nil || first == last {
			fmt.Fprint(w, " | — |")
			continue
		}
		fmt.Fprintf(w, " | %s |", formatDelta(first.NsPerOp, last.NsPerOp))
	}
	fmt.Fprintln(w)
}

// previous returns the most recent result for name strictly before
// baseline i on the same link, nil when i is the first sighting.
func (h *History) previous(i int, name string) *Entry {
	for j := i - 1; j >= 0 && h.Baselines[j].Link == h.Baselines[i].Link; j-- {
		if e := h.entry(j, name); e != nil {
			return e
		}
	}
	return nil
}

// bookends returns the oldest and newest results for name among the
// baselines on the newest file's link.
func (h *History) bookends(name string) (first, last *Entry) {
	link := h.Baselines[len(h.Baselines)-1].Link
	for i := range h.Files {
		if h.Baselines[i].Link != link {
			continue
		}
		if e := h.entry(i, name); e != nil {
			if first == nil {
				first = e
			}
			last = e
		}
	}
	return first, last
}

// linkName renders a baseline's link for reports.
func linkName(link string) string {
	if link == "" {
		return "unrecorded"
	}
	return link
}

// formatNs renders ns/op at millisecond scale, the natural unit of the
// pipeline stages.
func formatNs(ns int64) string {
	return fmt.Sprintf("%.1fms", float64(ns)/1e6)
}

// formatDelta renders the fractional change from a to b as a signed
// percentage.
func formatDelta(a, b int64) string {
	if a == 0 {
		return "—"
	}
	return fmt.Sprintf("%+.1f%%", 100*(float64(b)-float64(a))/float64(a))
}
