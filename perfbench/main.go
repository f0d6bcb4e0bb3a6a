// Command perfbench is patterndp's end-to-end benchmark. It runs one
// workload per invocation and prints, as its last line, one JSON object with
// the run's correctness verdict, its attempted and failed operations, and
// its metrics: the end-to-end metrics of BENCHMARK.json with -trace 0, the
// per-layer metrics with -trace 1.
//
//	perfbench -workload ingest-tumbling|answer-sliding|paper-fig4 -seed N -seconds S -trace 0|1
//
// Lines before the JSON report every metric with its unit and sample count,
// the correctness checks, and — in traced runs — the decomposition of the
// answer latency and the tracing overhead. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

var clockBase = time.Now()

// now is the benchmark's monotonic clock.
func now() time.Duration { return time.Since(clockBase) }

// metric is one reported figure; n is its sample count (0 when it is a
// single measurement or a count).
type metric struct {
	value float64
	unit  string
	n     int
}

// report accumulates one run's outcome.
type report struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	bad       violations
	notes     []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{value: v, unit: unit, n: n}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// benchSpec is the part of BENCHMARK.json the program reads: the metric
// names and units to report, in file order.
type benchSpec struct {
	EndToEnd  []namedUnit `json:"end_to_end"`
	PerLayer  []namedUnit `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

type namedUnit struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// names are the metrics a run reports: end-to-end, or per-layer when traced.
func (s *benchSpec) names(traced bool) []namedUnit {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

func loadBenchSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// output is the final JSON line.
type output struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload: ingest-tumbling | answer-sliding | paper-fig4")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark description naming the metrics to report")
	workDir := flag.String("workdir", ".bench_build/perfbench", "scratch directory for WAL files and trace output")
	flag.Parse()
	ok, err := run(*workload, *seed, *seconds, *trace, *specPath, *workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(2)
	}
}

// run executes one workload and prints its report; it returns whether every
// correctness check passed.
func run(workload string, seed int64, seconds, trace int, specPath, workDir string) (bool, error) {
	bs, err := loadBenchSpec(specPath)
	if err != nil {
		return false, err
	}
	rep, err := measure(workload, seed, seconds, trace, workDir)
	if err != nil {
		return false, err
	}
	fmt.Printf("\n%s seed=%d seconds=%d trace=%d\n", workload, seed, seconds, trace)
	out, err := render(os.Stdout, rep, bs.names(trace == 1))
	if err != nil {
		return false, err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return out.Correct, nil
}

// measure runs one workload.
func measure(workload string, seed int64, seconds, trace int, workDir string) (*report, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("-seconds %d must be at least 1", seconds)
	}
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("-trace %d must be 0 or 1", trace)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dur := time.Duration(seconds) * time.Second
	if workload == "paper-fig4" {
		return runPaper(seed, dur, trace == 1)
	}
	spec, ok := servingSpecs[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	walDir := filepath.Join(workDir, fmt.Sprintf("wal-%s-%d", workload, os.Getpid()))
	if trace == 1 {
		return runServingTraced(spec, seed, dur, walDir, workDir)
	}
	return runServing(spec, seed, dur, walDir)
}

// render prints the named metrics with their units and sample counts, the
// figures measured beyond them, the notes and the correctness verdict, and
// returns the final JSON object.
func render(w io.Writer, rep *report, want []namedUnit) (output, error) {
	out := output{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]jsonMetric{}}
	fmt.Fprintf(w, "%-44s %16s %-14s %s\n", "metric", "value", "unit", "samples")
	for _, m := range want {
		got, ok := rep.metrics[m.Name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if got.unit != m.Unit {
			return out, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, got.unit, m.Unit)
		}
		if math.IsNaN(got.value) || math.IsInf(got.value, 0) {
			return out, fmt.Errorf("metric %s is %v", m.Name, got.value)
		}
		n := "-"
		if got.n > 0 {
			n = fmt.Sprint(got.n)
		}
		fmt.Fprintf(w, "%-44s %16.6g %-14s %s\n", m.Name, got.value, got.unit, n)
		out.Metrics[m.Name] = jsonMetric{Value: got.value, Unit: got.unit}
	}
	// Figures measured but reported under the other -trace setting.
	var extra []string
	for name := range rep.metrics {
		if _, ok := out.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		m := rep.metrics[name]
		fmt.Fprintf(w, "  (also) %-36s %16.6g %-14s %d\n", name, m.value, m.unit, m.n)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(w, n)
	}
	out.Correct = rep.bad.n == 0 && rep.attempted > 0
	if rep.bad.n > 0 {
		fmt.Fprintf(w, "correctness: %d check(s) FAILED\n", rep.bad.n)
		for _, m := range rep.bad.msgs {
			fmt.Fprintln(w, "  -", m)
		}
	} else {
		fmt.Fprintln(w, "correctness: all checks passed")
	}
	return out, nil
}
