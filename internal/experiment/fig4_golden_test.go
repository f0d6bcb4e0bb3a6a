package experiment

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"patterndp/internal/synth"
)

// goldenFig4Config is the reduced Fig. 4 configuration of the repository's
// figure benchmarks: 2 reps, 2 synthetic datasets of 400 windows, 30 taxis x
// 300 ticks on a 10x10 grid and 10 adaptive iterations, seed 1.
func goldenFig4Config() Fig4Config {
	cfg := DefaultFig4Config(1)
	cfg.Reps = 2
	cfg.SynthDatasets = 2
	cfg.TaxiCfg.GridW, cfg.TaxiCfg.GridH = 10, 10
	cfg.TaxiCfg.NumTaxis = 30
	cfg.TaxiCfg.Ticks = 300
	cfg.Adaptive.MaxIters = 10
	scfg := synth.DefaultConfig(0)
	scfg.NumWindows = 400
	cfg.SynthCfg = scfg
	return cfg
}

// TestFig4Golden pins every cell of the reduced Fig. 4 run bit for bit: a
// speed change to the mechanisms, the adaptive fit or the quality measure
// must not move the paper's results for a fixed seed.
func TestFig4Golden(t *testing.T) {
	f, err := os.Open("testdata/fig4_reduced.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	cfg := goldenFig4Config()
	taxi, err := Fig4Taxi(cfg)
	if err != nil {
		t.Fatal(err)
	}
	synthetic, err := Fig4Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hex := func(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }
	var got []string
	for _, h := range []struct {
		name string
		rs   []Result
	}{{"taxi", taxi}, {"synthetic", synthetic}} {
		for _, r := range h.rs {
			got = append(got, fmt.Sprintf("%s %s %v %s %s", h.name, r.Mechanism, float64(r.Epsilon), hex(r.MRE.Mean), hex(r.Quality.Mean)))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d cells, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("cell %d:\n  got    %s\n  golden %s", i, got[i], want[i])
		}
	}
}
