package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/ethselfish/ethselfish/internal/benchwork"
)

func TestListBenchmarks(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sim-100k-blocks", "fig8-quick", "runmany-10x20k", "fig8-quick-cache-disk-warm", "analyze-facade"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("list output missing %s:\n%s", name, out.String())
		}
	}
}

// gatedWorkloads pins the workloads each BENCH_GATE_FILTERS entry selects.
// A workload that joins or leaves the CI baseline gate must change this
// table as well as the workload list.
var gatedWorkloads = map[string][]string{
	"2pools":        {"sim-100k-blocks-2pools", "sim-100k-blocks-2pools-stubborn", "sim-100k-blocks-2pools-table"},
	"tournament":    {"tournament-quick"},
	"eip100":        {"sim-100k-blocks-eip100"},
	"profitability": {"profitability-quick"},
	"alpha05":       {"sim-100k-blocks-alpha05"},
	"fastforward":   {"sim-100k-blocks-fastforward"},
	"cache":         {"poolwars-cache-cold", "poolwars-cache-warm", "fig8-quick-cache-disk-warm"},
	"1m":            {"sim-1m-blocks"},
	"fig8-alpha045": {"sim-100k-blocks-fig8-alpha045"},
}

func TestBenchGateFiltersMatchWorkloads(t *testing.T) {
	// The Makefile's bench-gate target records and compares one substring
	// filter at a time. Pin every BENCH_GATE_FILTERS entry against the
	// live workload registry (-list), the same names the gate runs, so no
	// workload silently joins or leaves the gate; and every name must be a
	// unique, valid sub-benchmark name for BenchmarkWorkloads.
	raw, err := os.ReadFile(filepath.Join("..", "..", "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	var filters []string
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "BENCH_GATE_FILTERS"); ok {
			_, value, found := strings.Cut(rest, "=")
			if !found {
				t.Fatalf("unparseable BENCH_GATE_FILTERS line: %q", line)
			}
			filters = strings.Fields(value)
		}
	}
	if len(filters) != len(gatedWorkloads) {
		t.Errorf("BENCH_GATE_FILTERS = %v, want the %d filters of gatedWorkloads", filters, len(gatedWorkloads))
	}
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	names := strings.Fields(out.String())
	valid := regexp.MustCompile(`^[a-z0-9-]+$`)
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] || !valid.MatchString(name) {
			t.Errorf("workload name %q is duplicated or not of the form %s", name, valid)
		}
		seen[name] = true
	}
	for _, filter := range filters {
		var matched []string
		for _, name := range names {
			if strings.Contains(name, filter) {
				matched = append(matched, name)
			}
		}
		if want, ok := gatedWorkloads[filter]; !ok || !slices.Equal(matched, want) {
			t.Errorf("bench-gate filter %q matches %v, want %v", filter, matched, want)
		}
	}
}

func TestNsPerBlock(t *testing.T) {
	sim := newResult("sim", testing.BenchmarkResult{N: 4, T: 8 * time.Millisecond,
		Extra: map[string]float64{benchwork.BlocksMetric: 1000}}, 1)
	if sim.NsPerBlock != 2000 {
		t.Errorf("ns per block = %v, want 2000 (2 ms/op over 1000 blocks)", sim.NsPerBlock)
	}
	raw, err := json.Marshal(newResult("sweep", testing.BenchmarkResult{N: 1, T: time.Millisecond}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "ns_per_block") {
		t.Errorf("a workload without block events emits ns_per_block: %s", raw)
	}
}

func TestEmitsValidJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real benchmark")
	}
	var out bytes.Buffer
	// table2-quick is the cheapest simulation-backed benchmark.
	if err := run([]string{"-filter", "table2-quick", "-parallel", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	var results []Result
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	r := results[0]
	if r.Name != "table2-quick" || r.Iterations <= 0 || r.NsPerOp <= 0 {
		t.Errorf("implausible result: %+v", r)
	}
	if r.Parallelism != 2 {
		t.Errorf("parallelism = %d, want 2", r.Parallelism)
	}
}

func TestUnknownFilterFails(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-filter", "no-such-bench"}, &out); err == nil {
		t.Error("unknown filter should fail")
	}
}

func TestRejectsPositionalArguments(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"extra"}, &out); err == nil {
		t.Error("positional arguments should fail")
	}
}

func writeBaseline(t *testing.T, results []Result) string {
	t.Helper()
	raw, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareBaselinePassesWithinTolerance(t *testing.T) {
	results := []Result{{Name: "x", NsPerOp: 110, AllocsPerOp: 10}}
	base := []Result{{Name: "x", NsPerOp: 100, AllocsPerOp: 10}}
	var out bytes.Buffer
	if err := compareBaseline(&out, writeBaseline(t, base), results); err != nil {
		t.Fatalf("10%% slower should pass: %v", err)
	}
	if !strings.Contains(out.String(), "x") {
		t.Errorf("delta table missing benchmark row:\n%s", out.String())
	}
}

func TestCompareBaselineFailsOnNsRegression(t *testing.T) {
	results := []Result{{Name: "x", NsPerOp: 130, AllocsPerOp: 10}}
	base := []Result{{Name: "x", NsPerOp: 100, AllocsPerOp: 10}}
	var out bytes.Buffer
	err := compareBaseline(&out, writeBaseline(t, base), results)
	if err == nil || !strings.Contains(err.Error(), "ns/op") {
		t.Fatalf("30%% slower should fail on ns/op, got %v", err)
	}
}

func TestCompareBaselineFailsOnBytesRegression(t *testing.T) {
	results := []Result{{Name: "x", NsPerOp: 100, BytesPerOp: 13 << 20, AllocsPerOp: 10}}
	base := []Result{{Name: "x", NsPerOp: 100, BytesPerOp: 10 << 20, AllocsPerOp: 10}}
	var out bytes.Buffer
	err := compareBaseline(&out, writeBaseline(t, base), results)
	if err == nil || !strings.Contains(err.Error(), "bytes/op") {
		t.Fatalf("30%% more bytes should fail on bytes/op, got %v", err)
	}
}

func TestCompareBaselineToleratesZeroBytesBaseline(t *testing.T) {
	// Histories recorded before the bytes gate carry zero BytesPerOp;
	// comparing against them must not fabricate a regression.
	results := []Result{{Name: "x", NsPerOp: 100, BytesPerOp: 0, AllocsPerOp: 10}}
	base := []Result{{Name: "x", NsPerOp: 100, AllocsPerOp: 10}}
	var out bytes.Buffer
	if err := compareBaseline(&out, writeBaseline(t, base), results); err != nil {
		t.Fatalf("zero-bytes baseline should pass: %v", err)
	}
}

func TestCompareBaselineFailsOnAllocRegression(t *testing.T) {
	results := []Result{{Name: "x", NsPerOp: 100, AllocsPerOp: 13}}
	base := []Result{{Name: "x", NsPerOp: 100, AllocsPerOp: 10}}
	var out bytes.Buffer
	err := compareBaseline(&out, writeBaseline(t, base), results)
	if err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("30%% more allocs should fail, got %v", err)
	}
}

func TestCompareBaselineToleratesNewBenchmarks(t *testing.T) {
	// A benchmark absent from the baseline is reported but never a
	// regression, so adding benchmarks cannot break the compare gate.
	results := []Result{{Name: "brand-new", NsPerOp: 100, AllocsPerOp: 5}}
	var out bytes.Buffer
	if err := compareBaseline(&out, writeBaseline(t, nil), results); err != nil {
		t.Fatalf("new benchmark should pass: %v", err)
	}
	if !strings.Contains(out.String(), "brand-new") {
		t.Errorf("new benchmark missing from table:\n%s", out.String())
	}
}

func TestCompareBaselineMissingFile(t *testing.T) {
	var out bytes.Buffer
	if err := compareBaseline(&out, "/no/such/file.json", nil); err == nil {
		t.Error("missing baseline file should fail")
	}
}
