package main

import (
	"encoding/json"
	"go/token"
	"reflect"
	"strings"
	"testing"

	"inframe/internal/analysis"
)

func TestParseArgs(t *testing.T) {
	cases := []struct {
		args []string
		want config
	}{
		{nil, config{format: "text", dir: "."}},
		{[]string{"./..."}, config{format: "text", dir: "."}},
		{[]string{"-list"}, config{list: true, format: "text", dir: "."}},
		{[]string{"--list"}, config{list: true, format: "text", dir: "."}},
		{[]string{"-only", "poolown"}, config{only: []string{"poolown"}, format: "text", dir: "."}},
		{[]string{"-only=poolown,stagekey"}, config{only: []string{"poolown", "stagekey"}, format: "text", dir: "."}},
		{[]string{"-list", "-only"}, config{list: true, only: []string{""}, format: "text", dir: "."}},
		{[]string{"-only="}, config{only: []string{""}, format: "text", dir: "."}},
		{[]string{"-format", "json", "./..."}, config{format: "json", dir: "."}},
		{[]string{"--format=json"}, config{format: "json", dir: "."}},
		{[]string{"-format=sarif"}, config{format: "sarif", dir: "."}},
		{[]string{"-timings", "./..."}, config{format: "text", dir: ".", timings: true}},
		{[]string{"-bogus", "./..."}, config{format: "text", dir: ".", unknown: "-bogus"}},
		{[]string{"-timing", "-fromat=json", "-list"}, config{list: true, format: "text", dir: ".", unknown: "-timing -fromat=json"}},
	}
	for _, c := range cases {
		if got := parseArgs(c.args); !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseArgs(%q) = %+v, want %+v", c.args, got, c.want)
		}
	}
}

func TestSelectAnalyzers(t *testing.T) {
	all, err := selectAnalyzers(nil)
	if err != nil {
		t.Fatalf("no -only: %v", err)
	}
	if len(all) != len(analysis.DefaultAnalyzers()) {
		t.Errorf("no -only selected %d analyzers, want the full registry", len(all))
	}
	subset, err := selectAnalyzers([]string{"poolown", " stagekey"})
	if err != nil {
		t.Fatalf("subset: %v", err)
	}
	if len(subset) != 2 || subset[0].Name != "poolown" || subset[1].Name != "stagekey" {
		t.Errorf("subset = %v", subset)
	}
	if _, err := selectAnalyzers([]string{"nosuch"}); err == nil {
		t.Error("unknown analyzer name did not error")
	}
	for _, empty := range [][]string{{""}, {"", ""}} {
		if _, err := selectAnalyzers(empty); err == nil {
			t.Errorf("empty selection %q did not error", empty)
		}
	}
}

func TestRunList(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(config{list: true, format: "text", dir: "."}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if want := len(analysis.DefaultAnalyzers()); len(lines) != want {
		t.Errorf("-list printed %d analyzers, want %d", len(lines), want)
	}
	for _, name := range []string{"poolown", "stagekey", "splitbudget"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s", name)
		}
	}
}

func TestRunListOnly(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(config{list: true, only: []string{"poolown"}, format: "text", dir: "."}, &out, &errOut); code != 0 {
		t.Fatalf("-list -only exited %d: %s", code, errOut.String())
	}
	if got := strings.TrimSpace(out.String()); !strings.HasPrefix(got, "poolown") || strings.Contains(got, "\n") {
		t.Errorf("-list -only poolown printed %q, want the one analyzer", got)
	}
	// An empty -only value, missing or after '=', must not fall back to
	// the whole registry.
	for _, args := range [][]string{{"-list", "-only"}, {"-list", "-only="}} {
		out.Reset()
		errOut.Reset()
		if code := run(parseArgs(args), &out, &errOut); code != 2 {
			t.Errorf("%q exited %d, want 2", args, code)
		}
		if out.Len() != 0 || !strings.Contains(errOut.String(), "-only selected no analyzers") {
			t.Errorf("%q printed %q, stderr %q; want only an -only error", args, out.String(), errOut.String())
		}
	}
}

func TestRunBadUsage(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(config{format: "yaml", dir: "."}, &out, &errOut); code != 2 {
		t.Errorf("bad -format exited %d, want 2", code)
	}
	if code := run(config{only: []string{"nosuch"}, format: "text", dir: "."}, &out, &errOut); code != 2 {
		t.Errorf("unknown -only exited %d, want 2", code)
	}
	// A mistyped flag must not run a default lint and exit 0: -fromat=json
	// would print text, and -timing would drop the timings.
	errOut.Reset()
	if code := run(parseArgs([]string{"-fromat=json", "-timing", "./..."}), &out, &errOut); code != 2 {
		t.Errorf("unknown flags exited %d, want 2", code)
	}
	if msg := errOut.String(); !strings.Contains(msg, "-fromat=json -timing") {
		t.Errorf("unknown-flag error %q does not name the flags", msg)
	}
}

// TestRunModuleJSON runs the real module through -format json and pins
// the report shape: full registry, a count entry per analyzer (zeros
// included), empty findings, exit 0.
func TestRunModuleJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide type-check in -short mode")
	}
	var out, errOut strings.Builder
	if code := run(config{format: "json", dir: "."}, &out, &errOut); code != 0 {
		t.Fatalf("module lint exited %d: %s%s", code, out.String(), errOut.String())
	}
	var report jsonReport
	if err := json.Unmarshal([]byte(out.String()), &report); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	want := len(analysis.DefaultAnalyzers())
	if len(report.Registry) != want {
		t.Errorf("registry has %d entries, want %d", len(report.Registry), want)
	}
	if len(report.Counts) != want {
		t.Errorf("counts has %d entries, want %d (zero entries included)", len(report.Counts), want)
	}
	for name, n := range report.Counts {
		if n != 0 {
			t.Errorf("analyzer %s reports %d findings on a clean tree", name, n)
		}
	}
	if len(report.Findings) != 0 {
		t.Errorf("clean tree produced findings: %v", report.Findings)
	}
}

// TestWriteSARIF pins the SARIF 2.1.0 shape without a module load: one
// run, a rule per analyzer, module-relative URIs, and a non-nil results
// array even when empty.
func TestWriteSARIF(t *testing.T) {
	analyzers := analysis.DefaultAnalyzers()
	diags := []analysis.Diagnostic{{
		Pos:      token.Position{Filename: "/mod/internal/core/mux.go", Line: 12, Column: 3},
		Analyzer: "poolown",
		Message:  "frame leaked",
	}}
	var out strings.Builder
	if err := writeSARIF(&out, "/mod", analyzers, diags); err != nil {
		t.Fatalf("writeSARIF: %v", err)
	}
	var log sarifLog
	if err := json.Unmarshal([]byte(out.String()), &log); err != nil {
		t.Fatalf("bad SARIF JSON: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if got, want := len(run.Tool.Driver.Rules), len(analyzers); got != want {
		t.Errorf("rules = %d, want %d", got, want)
	}
	if len(run.Results) != 1 {
		t.Fatalf("results = %d, want 1", len(run.Results))
	}
	r := run.Results[0]
	if r.RuleID != "poolown" || r.Level != "error" || r.Message.Text != "frame leaked" {
		t.Errorf("result = %+v", r)
	}
	loc := r.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/core/mux.go" {
		t.Errorf("uri = %q, want module-relative path", loc.ArtifactLocation.URI)
	}
	if loc.Region.StartLine != 12 || loc.Region.StartColumn != 3 {
		t.Errorf("region = %+v", loc.Region)
	}

	// An empty diagnostic set must still serialize "results": [] — SARIF
	// consumers reject a null results array.
	out.Reset()
	if err := writeSARIF(&out, "/mod", analyzers, nil); err != nil {
		t.Fatalf("writeSARIF(empty): %v", err)
	}
	if !strings.Contains(out.String(), `"results": []`) {
		t.Error("empty findings did not serialize as an empty results array")
	}
}

// TestRunModuleSARIF runs the real module through -format sarif with
// -timings: a clean tree yields an empty results array on stdout and a
// per-analyzer timing table (with the summaries row) on stderr.
func TestRunModuleSARIF(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide type-check in -short mode")
	}
	var out, errOut strings.Builder
	if code := run(config{format: "sarif", dir: ".", timings: true}, &out, &errOut); code != 0 {
		t.Fatalf("module lint exited %d: %s%s", code, out.String(), errOut.String())
	}
	var log sarifLog
	if err := json.Unmarshal([]byte(out.String()), &log); err != nil {
		t.Fatalf("bad SARIF JSON: %v", err)
	}
	if len(log.Runs) != 1 || len(log.Runs[0].Results) != 0 {
		t.Errorf("clean tree produced SARIF results: %+v", log.Runs)
	}
	for _, want := range []string{"timing summaries", "timing poolown", "timing total"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("timing output missing %q:\n%s", want, errOut.String())
		}
	}
}

// TestRunModuleOnly pins that a subset run works end to end: one
// analyzer in the registry, zero findings, exit 0.
func TestRunModuleOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide type-check in -short mode")
	}
	var out, errOut strings.Builder
	if code := run(config{only: []string{"splitbudget"}, format: "json", dir: "."}, &out, &errOut); code != 0 {
		t.Fatalf("-only splitbudget exited %d: %s%s", code, out.String(), errOut.String())
	}
	var report jsonReport
	if err := json.Unmarshal([]byte(out.String()), &report); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(report.Registry) != 1 || report.Registry[0] != "splitbudget" {
		t.Errorf("registry = %v, want [splitbudget]", report.Registry)
	}
}
