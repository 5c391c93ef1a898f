package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smallCfg keeps harness tests fast: tiny cardinality, two workers.
func smallCfg(t *testing.T, buf *bytes.Buffer) Config {
	t.Helper()
	return Config{N: 1500, Threads: 2, Seed: 1, W: buf}
}

func TestAccuracyTablesRun(t *testing.T) {
	var buf bytes.Buffer
	c := smallCfg(t, &buf)
	for _, name := range []string{"table2", "table3", "table4", "table5"} {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("experiment %s missing", name)
		}
		if err := e.Run(c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	out := buf.String()
	for _, want := range []string{"Table 2", "Table 3", "Table 4", "Table 5", "S4", "Approx-DPC"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// Accuracy values parse as numbers in [0,1]: spot check there are
	// plenty of "0." prefixed or "1.000" cells.
	if strings.Count(out, "0.")+strings.Count(out, "1.000") < 10 {
		t.Error("accuracy tables look empty")
	}
}

func TestPerfExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("perf harness in -short mode")
	}
	var buf bytes.Buffer
	c := Config{N: 800, Threads: 2, Seed: 1, W: &buf}
	for _, name := range []string{"table6", "table7", "fig7", "fig8", "fig9"} {
		e, _ := Lookup(name)
		if err := e.Run(c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	out := buf.String()
	for _, want := range []string{"Table 6", "Table 7", "Figure 7", "Figure 8", "Figure 9", "Ex-DPC", "S-Approx-DPC"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFigureExperimentsRenderFiles(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	c := Config{N: 1200, Threads: 2, Seed: 1, W: &buf, OutDir: dir}
	for _, name := range []string{"fig1", "fig2", "fig6"} {
		e, _ := Lookup(name)
		if err := e.Run(c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	wantFiles := []string{
		"fig1_decision_graph_s2.svg",
		"fig2_dpc_s2.ppm", "fig2_dbscan_s2.ppm",
		"fig6_b_exdpc.ppm", "fig6_d_approx.ppm", "fig6_f_sapprox_eps1.0.ppm",
	}
	for _, f := range wantFiles {
		st, err := os.Stat(filepath.Join(dir, f))
		if err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("artifact %s is empty", f)
		}
	}
	if !strings.Contains(buf.String(), "decision graph") {
		t.Error("fig1 output missing")
	}
}

func TestRegistry(t *testing.T) {
	if len(Experiments()) != 20 {
		t.Errorf("registry has %d experiments, want 20", len(Experiments()))
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("unknown experiment found")
	}
	if len(Names()) != 20 {
		t.Error("Names() incomplete")
	}
	for _, e := range Experiments() {
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.Name)
		}
	}
}

func TestOthersAndAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation harness in -short mode")
	}
	var buf bytes.Buffer
	c := Config{N: 800, Threads: 2, Seed: 1, W: &buf}
	for _, name := range []string{"others", "abl-joint", "abl-sched", "abl-subsets"} {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("experiment %s missing", name)
		}
		if err := e.Run(c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	out := buf.String()
	for _, want := range []string{"FastDPeak", "DPCG", "CFSFDP-DE", "joint", "LPT", "Eq.(2)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestServiceExperimentRuns(t *testing.T) {
	var buf bytes.Buffer
	c := smallCfg(t, &buf)
	e, ok := Lookup("service")
	if !ok {
		t.Fatal("service experiment missing")
	}
	if err := e.Run(c); err != nil {
		t.Fatalf("service: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"fit-once", "Ex-DPC", "Approx-DPC", "hit rate", "1 fit(s) performed"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestWireExperimentRuns(t *testing.T) {
	var buf bytes.Buffer
	c := smallCfg(t, &buf)
	c.WireJSON = filepath.Join(t.TempDir(), "wire.json")
	e, ok := Lookup("wire")
	if !ok {
		t.Fatal("wire experiment missing")
	}
	if err := e.Run(c); err != nil {
		t.Fatalf("wire: %v", err)
	}
	out := buf.String()
	// Every leg ran, labels matched, and the machine-readable record
	// landed where WireJSON pointed.
	for _, want := range []string{
		"batch/json", "batch/frames", "stream/ndjson", "stream/frames",
		"stream/frames-f32", "relay/frames", "stream speedup",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	data, err := os.ReadFile(c.WireJSON)
	if err != nil {
		t.Fatalf("wire record: %v", err)
	}
	for _, want := range []string{"stream_speedup_binary_vs_ndjson", "bytes_per_point", `"labels_match": true`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("wire record missing %q", want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.n() != 20000 {
		t.Errorf("default n = %d", c.n())
	}
	if c.threads() < 1 {
		t.Error("default threads < 1")
	}
	if c.w() == nil {
		t.Error("default writer nil")
	}
	if _, ok := c.outPath("x"); ok {
		t.Error("empty OutDir should disable rendering")
	}
}
