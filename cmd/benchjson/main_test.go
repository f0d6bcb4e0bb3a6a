package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// convert runs the converter over input and decodes its JSON.
func convert(t *testing.T, input string) map[string]map[string]float64 {
	t.Helper()
	var out strings.Builder
	if err := run(strings.NewReader(input), &out); err != nil {
		t.Fatal(err)
	}
	var got map[string]map[string]float64
	if err := json.Unmarshal([]byte(out.String()), &got); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	return got
}

func TestSingleRepeat(t *testing.T) {
	got := convert(t, `goos: linux
BenchmarkServe/shards=1-2   	  100000	       120.5 ns/op	   8300000 events/s	      15 B/op	       0 allocs/op
PASS
`)
	want := map[string]map[string]float64{"BenchmarkServe/shards=1": {
		"ns_per_op": 120.5, "ns_per_op_min": 120.5, "ns_per_op_max": 120.5,
		"events_per_s": 8.3e6, "events_per_s_min": 8.3e6, "events_per_s_max": 8.3e6,
		"B_per_op": 15, "B_per_op_min": 15, "B_per_op_max": 15,
		"allocs_per_op": 0, "allocs_per_op_min": 0, "allocs_per_op_max": 0,
		"n": 1,
	}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v\nwant %v", got, want)
	}
}

// TestThreeRepeatsAggregate pins -count=3: the median, not the last line.
func TestThreeRepeatsAggregate(t *testing.T) {
	got := convert(t, `BenchmarkA-8   10   300 ns/op   2 allocs/op
BenchmarkB-8   10   7 ns/op
BenchmarkA-8   10   100 ns/op   2 allocs/op
BenchmarkA-8   10   200 ns/op   5 allocs/op
`)
	a := got["BenchmarkA"]
	for key, want := range map[string]float64{
		"ns_per_op": 200, "ns_per_op_min": 100, "ns_per_op_max": 300,
		"allocs_per_op": 2, "allocs_per_op_min": 2, "allocs_per_op_max": 5,
		"n": 3,
	} {
		if a[key] != want {
			t.Errorf("BenchmarkA %s = %v, want %v", key, a[key], want)
		}
	}
	if b := got["BenchmarkB"]; b["n"] != 1 || b["ns_per_op"] != 7 {
		t.Errorf("BenchmarkB = %v", b)
	}
}

func TestEvenRepeatsMedianIsMidpoint(t *testing.T) {
	got := convert(t, "BenchmarkA 1 10 ns/op\nBenchmarkA 1 40 ns/op\nBenchmarkA 1 20 ns/op\nBenchmarkA 1 30 ns/op\n")
	if a := got["BenchmarkA"]; a["ns_per_op"] != 25 || a["n"] != 4 {
		t.Errorf("BenchmarkA = %v, want median 25 over n=4", a)
	}
}

func TestOutputKeepsFirstSeenOrder(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader("BenchmarkZ 1 1 ns/op\nBenchmarkA 1 1 ns/op\nBenchmarkZ 1 2 ns/op\n"), &out); err != nil {
		t.Fatal(err)
	}
	if s := out.String(); strings.Index(s, "BenchmarkZ") > strings.Index(s, "BenchmarkA") {
		t.Errorf("order not first-seen:\n%s", s)
	}
}

func TestNoBenchmarkLines(t *testing.T) {
	if err := run(strings.NewReader("PASS\nok  \tpatterndp\t0.1s\n"), &strings.Builder{}); err == nil {
		t.Error("input without benchmark lines accepted")
	}
}

func TestStripProcSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkX/sub-8":         "BenchmarkX/sub",
		"BenchmarkX-16":            "BenchmarkX",
		"BenchmarkX":               "BenchmarkX",
		"BenchmarkX/mode=drop-old": "BenchmarkX/mode=drop-old",
		"BenchmarkX/shards=4":      "BenchmarkX/shards=4",
		"BenchmarkX-":              "BenchmarkX-",
	} {
		if got := stripProcSuffix(in); got != want {
			t.Errorf("stripProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}
