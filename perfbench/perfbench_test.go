package main

import (
	"encoding/json"
	"io"
	"maps"
	"os"
	"slices"
	"testing"
)

// shortConfig runs a workload at a few percent of its size for one
// second, the benchmark's short mode.
func shortConfig(t *testing.T, workload string, seed int64, trace bool) config {
	return config{
		workload: workload, seed: seed, seconds: 1, trace: trace,
		procs: 2, setups: 1, traceDir: t.TempDir(), scale: 0.05,
	}
}

func names(m map[string]metric) []string {
	return slices.Sorted(maps.Keys(m))
}

func TestEveryMetricEmittedWithItsUnit(t *testing.T) {
	for _, wl := range slices.Sorted(maps.Keys(workloads)) {
		t.Run(wl, func(t *testing.T) {
			res, err := run(shortConfig(t, wl, 1, false), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced run: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			if got, want := names(res.Metrics), slices.Sorted(maps.Keys(endToEndUnits)); !slices.Equal(got, want) {
				t.Fatalf("end-to-end metrics %v, want %v", got, want)
			}
			for name, m := range res.Metrics {
				if m.Unit != endToEndUnits[name] || !(m.Value > 0) {
					t.Errorf("%s = %v %q; want a positive value in %q", name, m.Value, m.Unit, endToEndUnits[name])
				}
			}

			res, err = run(shortConfig(t, wl, 1, true), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run: %d of %d failed", res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Fatalf("traced run emitted %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			for _, pl := range perLayer {
				if m, ok := res.Metrics[pl.name]; !ok || m.Unit != pl.unit {
					t.Errorf("per-layer %s = %+v, want unit %q", pl.name, m, pl.unit)
				}
			}
			if res.Metrics["trace.spans"].Value == 0 || res.Metrics["trace.coverage"].Value <= 0 {
				t.Errorf("traced run recorded no covered spans: %+v %+v", res.Metrics["trace.spans"], res.Metrics["trace.coverage"])
			}
		})
	}
}

func TestCorruptedLabelFailsAGate(t *testing.T) {
	for _, wl := range slices.Sorted(maps.Keys(workloads)) {
		t.Run(wl, func(t *testing.T) {
			cfg := shortConfig(t, wl, 1, false)
			cfg.corrupt = true
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("a corrupted label passed every gate: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
			}
		})
	}
}

func TestSecondSeedSameMetricSet(t *testing.T) {
	for _, wl := range slices.Sorted(maps.Keys(workloads)) {
		t.Run(wl, func(t *testing.T) {
			a, err := run(shortConfig(t, wl, 1, false), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			b, err := run(shortConfig(t, wl, 2, false), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !b.Correct {
				t.Fatalf("seed 2: %d of %d failed", b.Failed, b.Attempted)
			}
			if !slices.Equal(names(a.Metrics), names(b.Metrics)) {
				t.Fatalf("seed 1 metrics %v, seed 2 metrics %v", names(a.Metrics), names(b.Metrics))
			}
			for name, m := range a.Metrics {
				if b.Metrics[name].Unit != m.Unit {
					t.Errorf("%s: unit %q with seed 1, %q with seed 2", name, m.Unit, b.Metrics[name].Unit)
				}
			}
		})
	}
}

// TestBenchmarkJSONDeclaresEveryMetric keeps the repository's
// BENCHMARK.json in step with the metrics the benchmark emits.
func TestBenchmarkJSONDeclaresEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range decl.Workloads {
		wls = append(wls, w.Name)
	}
	slices.Sort(wls)
	if want := slices.Sorted(maps.Keys(workloads)); !slices.Equal(wls, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", wls, want)
	}
	if len(decl.EndToEnd) != len(endToEndUnits) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, benchmark emits %d", len(decl.EndToEnd), len(endToEndUnits))
	}
	for _, m := range decl.EndToEnd {
		if endToEndUnits[m.Name] != m.Unit {
			t.Errorf("end-to-end %s %q: benchmark emits unit %q", m.Name, m.Unit, endToEndUnits[m.Name])
		}
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, benchmark emits %d", len(decl.PerLayer), len(perLayer))
	}
	for i, m := range decl.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s %q, benchmark %s %q", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
