package main

import (
	"io"
	"path/filepath"
	"testing"
)

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	bs, err := loadBenchSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

// TestSpecMatchesProgram pins BENCHMARK.json's workloads and per-layer
// metrics to the ones the program implements.
func TestSpecMatchesProgram(t *testing.T) {
	bs := loadTestSpec(t)
	for _, w := range bs.Workloads {
		if _, ok := servingSpecs[w.Name]; !ok && w.Name != "paper-fig4" {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	declared := map[string]bool{}
	for _, m := range bs.PerLayer {
		declared[m.Name] = true
		if unit, ok := layerUnits[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per-layer metric %s (%s) has no matching entry in layerUnits (%q)", m.Name, m.Unit, unit)
		}
	}
	for name := range layerUnits {
		if !declared[name] {
			t.Errorf("layerUnits has %s, BENCHMARK.json does not", name)
		}
	}
}

// TestSmoke runs every workload briefly, traced and untraced, and checks
// that it reports exactly the metrics BENCHMARK.json names, in their
// units, and passes its correctness checks.
func TestSmoke(t *testing.T) {
	bs := loadTestSpec(t)
	workloads := []string{"paper-fig4"}
	for name := range servingSpecs {
		workloads = append(workloads, name)
	}
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			if testing.Short() && w == "paper-fig4" {
				continue // each paper run sweeps Fig. 4 twice: seconds, not milliseconds
			}
			rep, err := measure(w, 3, 1, trace, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w, trace, err)
			}
			want := bs.names(trace == 1)
			out, err := render(io.Discard, rep, want)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w, trace, err)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json names %d", w, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				if got := out.Metrics[m.Name]; got.Unit != m.Unit {
					t.Errorf("%s trace=%d: %s in %q, want %q", w, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if !out.Correct || out.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d: %q", w, trace, out.Correct, out.Attempted, rep.bad.msgs)
			}
		}
	}
}
