// Command benchjson converts `go test -bench` output on stdin into a JSON
// object mapping each benchmark name to its metrics, so CI can persist
// hot-path results (BENCH_serve.json) as a comparable trajectory across PRs.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkServeWindowHotPath -benchmem -count=3 . | go run ./cmd/benchjson
//
// Standard metrics become ns_per_op, bytes_per_op, allocs_per_op; custom
// b.ReportMetric units (e.g. events/s) are kept under their own key with /
// replaced by _per_. Repeated lines of one benchmark (-count=N) are
// aggregated: each metric key holds the median over the repeats, key_min and
// key_max its extremes, and n the number of repeats.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// bench holds one benchmark's repeats: every sample of every metric key.
type bench struct {
	n       int
	samples map[string][]float64
}

// run converts the benchmark output on in into the JSON object on out, in
// first-seen benchmark order for stable diffs.
func run(in io.Reader, out io.Writer) error {
	results := make(map[string]*bench)
	var order []string
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// name, iterations, then metric pairs: value unit.
		if len(fields) < 4 {
			continue
		}
		metrics := make(map[string]float64)
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			metrics[metricKey(fields[i+1])] = v
		}
		if len(metrics) == 0 {
			continue
		}
		name := stripProcSuffix(fields[0])
		b := results[name]
		if b == nil {
			b = &bench{samples: make(map[string][]float64)}
			results[name] = b
			order = append(order, name)
		}
		b.n++
		for key, v := range metrics {
			b.samples[key] = append(b.samples[key], v)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(results) == 0 {
		return errors.New("no benchmark lines on stdin")
	}
	var sb strings.Builder
	sb.WriteString("{\n")
	for i, name := range order {
		enc, err := json.Marshal(results[name].summary())
		if err != nil {
			return err
		}
		fmt.Fprintf(&sb, "  %q: %s", name, enc)
		if i < len(order)-1 {
			sb.WriteString(",")
		}
		sb.WriteString("\n")
	}
	sb.WriteString("}\n")
	_, err := io.WriteString(out, sb.String())
	return err
}

// summary reduces the repeats to median, min and max per metric key, plus
// the repeat count n.
func (b *bench) summary() map[string]float64 {
	out := make(map[string]float64, 3*len(b.samples)+1)
	for key, xs := range b.samples {
		slices.Sort(xs)
		mid := len(xs) / 2
		med := xs[mid]
		if len(xs)%2 == 0 {
			med = (xs[mid-1] + xs[mid]) / 2
		}
		out[key] = med
		out[key+"_min"] = xs[0]
		out[key+"_max"] = xs[len(xs)-1]
	}
	out["n"] = float64(b.n)
	return out
}

// metricKey normalizes a benchmark unit into a JSON-friendly key:
// "ns/op" → "ns_per_op", "events/s" → "events_per_s".
func metricKey(unit string) string {
	unit = strings.ReplaceAll(unit, "/", "_per_")
	return strings.ReplaceAll(unit, "-", "_")
}

// stripProcSuffix drops the "-N" GOMAXPROCS suffix the test runner appends
// to benchmark names on multi-core machines ("BenchmarkX/sub-8" →
// "BenchmarkX/sub"), so BENCH_serve.json rows keep the same key across
// machines with different core counts.
func stripProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, r := range name[i+1:] {
		if r < '0' || r > '9' {
			return name
		}
	}
	return name[:i]
}
