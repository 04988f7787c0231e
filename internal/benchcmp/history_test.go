package benchcmp

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// writeHistoryFile drops one baseline JSON into dir.
func writeHistoryFile(t *testing.T, dir, name, schema string, entries []Entry) {
	t.Helper()
	writeLinkFile(t, dir, name, schema, "", entries)
}

// writeLinkFile is writeHistoryFile for a baseline that names its link.
func writeLinkFile(t *testing.T, dir, name, schema, link string, entries []Entry) {
	t.Helper()
	b := Baseline{
		Schema:     schema,
		GoVersion:  "go1.24.0",
		GoOS:       "linux",
		GoArch:     "amd64",
		GoMaxProcs: 1,
		Scale:      2,
		Benchmarks: entries,
	}
	// Write bypasses the schema guard on purpose: history files may carry
	// the v1 schema that Baseline.Write refuses.
	data := []byte(`{"schema":"` + schema + `","go_version":"go1.24.0","goos":"linux","goarch":"amd64","gomaxprocs":1,"scale":2,"link":"` + link + `","benchmarks":[`)
	for i, e := range b.Benchmarks {
		if i > 0 {
			data = append(data, ',')
		}
		data = append(data, []byte(
			`{"name":"`+e.Name+`","iterations":1,"ns_per_op":`+strconv.FormatInt(e.NsPerOp, 10)+`}`)...)
	}
	data = append(data, []byte("]}")...)
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadHistory pins the trend report: v1 and v2 files load side by
// side, order is lexical, late-added benchmarks render as gaps, and the
// closing row compares newest against oldest.
func TestLoadHistory(t *testing.T) {
	dir := t.TempDir()
	writeHistoryFile(t, dir, "BENCH_2026-01-01.json", schemaV1, []Entry{
		{Name: "EndToEnd/workers=1", NsPerOp: 1000e6},
	})
	writeHistoryFile(t, dir, "BENCH_2026-01-02.json", Schema, []Entry{
		{Name: "EndToEnd/workers=1", NsPerOp: 800e6},
		{Name: "Fleet/workers=1", NsPerOp: 2000e6},
	})
	h, err := LoadHistory(dir)
	if err != nil {
		t.Fatalf("LoadHistory: %v", err)
	}
	if len(h.Files) != 2 || h.Files[0] != "BENCH_2026-01-01.json" {
		t.Fatalf("files = %v, want lexical order", h.Files)
	}
	if names := h.Names(); len(names) != 2 || names[0] != "EndToEnd/workers=1" {
		t.Fatalf("names = %v", names)
	}

	var out strings.Builder
	h.WriteMarkdown(&out)
	got := out.String()
	for _, want := range []string{
		"| 2026-01-01 | 1000.0ms | — | — | — |",
		"| 2026-01-02 | 800.0ms | -20.0% | 2000.0ms | — |",
		"| newest vs oldest | | -20.0% | | — |",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("history table missing %q:\n%s", want, got)
		}
	}
}

// TestHistoryMarksLinkBreak pins the link break: a row names the change,
// no delta reaches across it, and the closing row covers only the newest
// link's files.
func TestHistoryMarksLinkBreak(t *testing.T) {
	dir := t.TempDir()
	writeHistoryFile(t, dir, "BENCH_2026-01-01.json", Schema, []Entry{
		{Name: "EndToEnd/workers=1", NsPerOp: 1000e6},
	})
	writeHistoryFile(t, dir, "BENCH_2026-01-02.json", Schema, []Entry{
		{Name: "EndToEnd/workers=1", NsPerOp: 900e6},
	})
	writeLinkFile(t, dir, "BENCH_2026-01-03.json", Schema, "camera-blur-0", []Entry{
		{Name: "EndToEnd/workers=1", NsPerOp: 300e6},
	})
	writeLinkFile(t, dir, "BENCH_2026-01-04.json", Schema, "camera-blur-0", []Entry{
		{Name: "EndToEnd/workers=1", NsPerOp: 330e6},
	})
	h, err := LoadHistory(dir)
	if err != nil {
		t.Fatalf("LoadHistory: %v", err)
	}
	var out strings.Builder
	h.WriteMarkdown(&out)
	got := out.String()
	for _, want := range []string{
		"| 2026-01-02 | 900.0ms | -10.0% |\n| link: unrecorded → camera-blur-0 |\n| 2026-01-03 | 300.0ms | — |\n",
		"| 2026-01-04 | 330.0ms | +10.0% |",
		"| newest vs oldest | | +10.0% |",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("history table missing %q:\n%s", want, got)
		}
	}
}

// TestLoadHistoryEmptyDir pins the no-baselines error.
func TestLoadHistoryEmptyDir(t *testing.T) {
	if _, err := LoadHistory(t.TempDir()); err == nil {
		t.Fatal("LoadHistory on an empty dir did not fail")
	}
}

// TestLoadAnyRejectsUnknownSchema keeps the lenient loader from reading
// foreign JSON.
func TestLoadAnyRejectsUnknownSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_x.json")
	if err := os.WriteFile(path, []byte(`{"schema":"other/v9","benchmarks":[{"name":"a"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAny(path); err == nil {
		t.Fatal("unknown schema did not fail")
	}
}
