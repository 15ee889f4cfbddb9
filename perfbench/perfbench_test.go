package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks the
// program against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runTiny runs one tiny-scale benchmark in-process, corrupting the output
// of timed op corruptOp (none if negative), and returns its final report
// as the JSON line decodes it.
func runTiny(t *testing.T, workload string, trace bool, corruptOp int) report {
	t.Helper()
	opts := options{workload: workload, seed: 7, seconds: 0.3, trace: trace,
		out: t.TempDir(), commit: "test", scale: tinyScale, corruptOp: corruptOp}
	var stdout, stderr bytes.Buffer
	got, err := execute(opts, &stdout, &stderr)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, stderr.String())
	}
	line, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("%s: JSON line %s: %v", workload, line, err)
	}
	return rep
}

// TestCommandLineRunsPaperScale checks that the command line always runs
// the paper-scale inputs with nothing corrupted, and offers no flag to
// change either.
func TestCommandLineRunsPaperScale(t *testing.T) {
	args := []string{"--workload", "chain-1m-eip100", "--seed", "3", "--seconds", "10", "--trace", "0"}
	opts, err := parseFlags(args, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opts.scale != paperScale || opts.corruptOp != -1 {
		t.Fatalf("parsed scale %+v corruptOp %d, want paper scale and -1", opts.scale, opts.corruptOp)
	}
	for _, flag := range []string{"--scale=tiny", "--corrupt-op=0"} {
		if _, err := parseFlags(append(args, flag), io.Discard); err == nil {
			t.Errorf("parseFlags accepted %s", flag)
		}
	}
}

// checkMetrics asserts the report carries exactly the named metrics, each
// with its unit and a finite value.
func checkMetrics(t *testing.T, workload string, rep report, want map[string]string) {
	t.Helper()
	if len(rep.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", workload, len(rep.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := rep.Metrics[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s unit %q, want %q", workload, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", workload, name, m.Value)
		}
	}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	var layers []string
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name+"/"+m.Unit)
	}
	var have []string
	for _, m := range perLayer {
		have = append(have, m.name+"/"+m.unit)
	}
	if !slices.Equal(layers, have) {
		t.Fatalf("BENCHMARK.json per_layer %v, program has %v", layers, have)
	}
}

func TestTinyRunsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	endToEnd := map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	layers := map[string]string{}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	for _, name := range workloadNames() {
		rep := runTiny(t, name, false, -1)
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s: untraced run correct=%t failed=%d attempted=%d", name, rep.Correct, rep.Failed, rep.Attempted)
		}
		checkMetrics(t, name, rep, endToEnd)
		for metricName, m := range rep.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, metricName, m.Value)
			}
		}

		rep = runTiny(t, name, true, -1)
		if !rep.Correct || rep.Failed != 0 {
			t.Errorf("%s: traced run correct=%t failed=%d (replay fidelity or output check)", name, rep.Correct, rep.Failed)
		}
		checkMetrics(t, name, rep, layers)
	}
}

func TestCorruptedRowFailsTheOp(t *testing.T) {
	for _, name := range workloadNames() {
		rep := runTiny(t, name, false, 0)
		if rep.Correct || rep.Failed != 1 {
			t.Errorf("%s: corrupted op gave correct=%t failed=%d of %d, want exactly one failed op",
				name, rep.Correct, rep.Failed, rep.Attempted)
		}
	}
}

func TestSeedsAreReproducibleAndDistinct(t *testing.T) {
	b := &bench{opts: options{seed: 1}}
	if b.seedFor("op", 0) != b.seedFor("op", 0) {
		t.Fatal("seedFor is not deterministic")
	}
	seen := map[uint64]bool{}
	for _, purpose := range []string{"op", "setup"} {
		for k := 0; k < 100; k++ {
			s := b.seedFor(purpose, k)
			if seen[s] {
				t.Fatalf("seed collision at %s %d", purpose, k)
			}
			seen[s] = true
		}
	}
}
