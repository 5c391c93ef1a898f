// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed for a fixed time, checks every output it gets,
// and prints its metrics; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload serve-assign --seed 7 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured untraced.
// --trace 1 reports the per-layer metrics: half the interval runs
// untraced, half traced (spans kept in memory and written to
// --trace-dir at the end), then each layer's public entry points are
// replayed on the workload's own inputs. README.md lists the workloads
// and metrics and which end-to-end metric each layer metric moves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/api"
	"repro/internal/geom"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	procs    int    // pinned GOMAXPROCS and the Workers of every fit and daemon
	setups   int    // set-ups per untraced run; setup_s is their median
	traceDir string // where a traced run writes its spans
	// scale multiplies every dataset and batch size; below 1 it is the
	// short mode the benchmark's own tests use.
	scale float64
	// corrupt flips one label before every label gate (tests only).
	corrupt bool
}

// size scales n, keeping at least lo.
func (c config) size(n, lo int) int {
	return max(int(float64(n)*c.scale), lo)
}

func (c config) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// clients is the number of closed-loop clients a workload runs.
var clients = map[string]int{"fit-paper": 1, "serve-assign": 2, "window-ring": 2}

// warmup is the share of the interval a workload first runs unmeasured,
// so that connections, goroutine stacks and the GC's heap goal settle
// before timing starts. fit-paper needs none (every fit takes 0.4 s or
// more, so a cold start is a small share of the first); window-ring's
// writer cycle would double its run.
var warmup = map[string]float64{"serve-assign": 0.1}

// instance is one set-up workload, ready to be driven.
type instance interface {
	// drive runs the workload's closed-loop clients for d and records
	// every operation; no operation starts after d.
	drive(rec *recorder, d time.Duration)
	// counters reads the program's counters (zero without a daemon).
	counters() (counters, error)
	// layers replays each layer's public entry points on the workload's
	// inputs and fills the per-layer metrics it measures.
	layers(rec *recorder, tr *tracer, m map[string]float64) error
	// summary reduces an interval of length d to the main and side
	// operation statistics the end-to-end metrics report.
	summary(rec *recorder, d time.Duration) (main, side opStats)
	// verify runs the end-of-run correctness gates.
	verify(rec *recorder)
	// named reports the workload's metrics under the names ROADMAP and
	// the issue tracker use; they are printed, not gated.
	named(rec *recorder, d time.Duration) []named
	close()
}

type named struct {
	name  string
	value float64
	unit  string
}

type counters struct {
	api.Stats
	replicated int64
}

type setupFunc func(cfg config, tr *tracer, rec *recorder) (instance, error)

var workloads = map[string]setupFunc{
	"fit-paper":    setupFitPaper,
	"serve-assign": setupServeAssign,
	"window-ring":  setupWindowRing,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	// GOMAXPROCS is pinned to the CPU count explicitly: before Go 1.25 the
	// runtime ignores a container's CPU quota, so the pin (recorded in the
	// environment line) is what makes runs on one machine comparable.
	cfg := config{scale: 1, procs: runtime.NumCPU(), setups: 3, traceDir: filepath.Join(".bench_build", "traces")}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: fit-paper, serve-assign or window-ring")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the measured interval in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func environment(cfg config) map[string]any {
	return map[string]any{
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "workers": cfg.procs,
		"clients": clients[cfg.workload], "simd": geom.SIMDEnabled(), "seed": cfg.seed,
		"workload": cfg.workload, "seconds": cfg.seconds, "trace": cfg.trace,
	}
}

// run sets the workload up, drives it, checks it and returns the result.
func run(cfg config, w io.Writer) (result, error) {
	setup, ok := workloads[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (have fit-paper, serve-assign, window-ring)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive")
	}
	runtime.GOMAXPROCS(cfg.procs)
	tr := newTracer()
	if cfg.trace {
		base := http.DefaultTransport
		http.DefaultTransport = &transport{base: base, t: tr}
		defer func() { http.DefaultTransport = base }()
	}
	env := environment(cfg)
	envLine, _ := json.Marshal(env) // a map of plain values always marshals
	fmt.Fprintf(w, "env %s\n", envLine)

	rec := newRecorder()
	setups := cfg.setups
	if cfg.trace {
		setups = 1
	}
	var (
		inst     instance
		setupSec []float64
	)
	for i := 0; i < setups; i++ {
		start := time.Now()
		in, err := setup(cfg, tr, rec)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupSec = append(setupSec, time.Since(start).Seconds())
		if i < setups-1 {
			in.close()
		} else {
			inst = in
		}
	}
	defer inst.close()

	if share := warmup[cfg.workload]; share > 0 {
		warm := newRecorder()
		inst.drive(warm, time.Duration(share*float64(cfg.duration())))
		rec.absorb(warm)
	}
	m := make(map[string]metric)
	if !cfg.trace {
		heap := startHeapSampler(10 * time.Millisecond)
		rec.start = time.Now()
		inst.drive(rec, cfg.duration())
		peak := heap.finish()
		inst.verify(rec)
		main, side := inst.summary(rec, cfg.duration())
		for name, v := range map[string]float64{
			"setup_s":        median(setupSec),
			"peak_heap_mb":   peak,
			"main_pts_per_s": main.ptsPerS,
			"main_p50_ms":    ms(main.p50),
			"main_p99_ms":    ms(main.p99),
			"side_pts_per_s": side.ptsPerS,
			"side_p50_ms":    ms(side.p50),
		} {
			m[name] = metric{v, endToEndUnits[name]}
		}
		if main.windows > 1 {
			fmt.Fprintf(w, "ops main n=%d (p99 is the median of %d windows' p99, each with at least %d samples beyond it)  side n=%d\n",
				main.n, main.windows, main.beyond99, side.n)
		} else {
			fmt.Fprintf(w, "ops main n=%d (p99 has %d samples beyond it)  side n=%d\n", main.n, main.beyond99, side.n)
		}
		if main.beyond99*max(main.windows, 1) < 10 {
			fmt.Fprintf(w, "note: fewer than 10 samples lie beyond main_p99_ms; read it as the slowest operations, not a percentile\n")
		}
		for _, nv := range inst.named(rec, cfg.duration()) {
			fmt.Fprintf(w, "issue-metric %s %.6g %s\n", nv.name, nv.value, nv.unit)
		}
	} else {
		if err := traced(cfg, inst, tr, rec, env, m); err != nil {
			return result{}, err
		}
	}
	printMetrics(w, m)
	errRate := 0.0
	if rec.attempted > 0 {
		errRate = float64(rec.failed) / float64(rec.attempted)
	}
	fmt.Fprintf(w, "error_rate %.6g (%d failed of %d attempted)\n", errRate, rec.failed, rec.attempted)
	for _, f := range rec.failures {
		fmt.Fprintf(w, "failure: %s\n", f)
	}
	return result{Correct: rec.failed == 0, Attempted: rec.attempted, Failed: rec.failed, Metrics: m}, nil
}

// traced drives the untraced and traced halves, replays the layers and
// derives every per-layer metric.
func traced(cfg config, inst instance, tr *tracer, rec *recorder, env map[string]any, m map[string]metric) error {
	vals := make(map[string]float64, len(perLayer))
	for _, pl := range perLayer {
		vals[pl.name] = 0
	}
	half := cfg.duration() / 2
	off := newRecorder()
	inst.drive(off, half)
	c0, err := inst.counters()
	if err != nil {
		return err
	}
	tr.on.Store(true)
	rec.start = time.Now()
	inst.drive(rec, half)
	tr.on.Store(false)
	c1, err := inst.counters()
	if err != nil {
		return err
	}
	tr.on.Store(true)
	lerr := inst.layers(rec, tr, vals)
	tr.on.Store(false)
	if lerr != nil {
		return fmt.Errorf("layer replay: %w", lerr)
	}
	inst.verify(rec)
	rec.absorb(off)

	counterMetrics(c0, c1, vals)
	spans := tr.snapshot()
	spanMetrics(spans, vals)
	on, _ := inst.summary(rec, half)
	offMain, _ := inst.summary(off, half)
	onRate, offRate := on.ptsPerS, offMain.ptsPerS
	vals["trace.untraced_pts_per_s"] = offRate
	if onRate > 0 {
		vals["trace.overhead_pct"] = (offRate/onRate - 1) * 100
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := writeTrace(path, env, spans); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	for _, pl := range perLayer {
		m[pl.name] = metric{vals[pl.name], pl.unit}
	}
	return nil
}

// counterMetrics turns two /v1/stats snapshots into interval deltas.
func counterMetrics(c0, c1 counters, v map[string]float64) {
	d := func(a, b int64) float64 { return float64(b - a) }
	hits, misses := d(c0.CacheHits, c1.CacheHits), d(c0.CacheMisses, c1.CacheMisses)
	cuts := d(c0.IndexCuts, c1.IndexCuts)
	v["service.cache_hits"] = hits
	v["service.cache_misses"] = misses
	v["service.cache_lookups"] = hits + misses
	v["service.cache_hit_ratio"] = ratio(hits, hits+misses)
	v["service.models_derived"] = cuts + misses
	v["service.index_cut_ratio"] = ratio(cuts, cuts+misses)
	v["densindex.builds"] = d(c0.IndexBuilds, c1.IndexBuilds)
	v["densindex.cuts"] = cuts
	v["densindex.updates"] = d(c0.IndexUpdates, c1.IndexUpdates)
	v["drift.trips"] = d(c0.DriftTrips, c1.DriftTrips)
	v["drift.refits"] = d(c0.DriftRefits, c1.DriftRefits)
	v["drift.stale_serves"] = d(c0.DriftStaleServes, c1.DriftStaleServes)
	rep := d(c0.replicated, c1.replicated)
	v["router.replicated"] = rep
	v["router.replicated_per_write"] = ratio(rep, v["router.writes"])
}

// spanMetrics derives the http, router and trace metrics from spans.
func spanMetrics(spans []span, v map[string]float64) {
	kids := children(spans)
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var wall, cov time.Duration
	var transport, relay []time.Duration
	handler := make(map[string][]time.Duration)
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "client.") && s.Parent == 0 {
			wall += s.dur()
			cov += covered(s, kids[s.ID])
			if hasHTTP(kids[s.ID]) {
				transport = append(transport, selfTime(s, kids))
			}
			continue
		}
		if !strings.HasPrefix(s.Name, "http.") || s.Parent == 0 {
			continue
		}
		if p, ok := byID[s.Parent]; !ok || !strings.HasPrefix(p.Name, "client.") && !strings.HasPrefix(p.Name, "http.") {
			continue
		}
		innermost := true
		for _, k := range kids[s.ID] {
			if k.Name == s.Name {
				innermost = false
			}
		}
		if innermost {
			handler[strings.TrimPrefix(s.Name, "http.")] = append(handler[strings.TrimPrefix(s.Name, "http.")], selfTime(s, kids))
		} else if s.Name == "http.assign" {
			relay = append(relay, selfTime(s, kids))
		}
	}
	v["trace.spans"] = float64(len(spans))
	v["trace.wall_s"] = wall.Seconds()
	if wall > 0 {
		v["trace.coverage"] = cov.Seconds() / wall.Seconds()
	}
	v["http.transport_ms"] = ms(medianDur(transport))
	v["router.relay_ms"] = ms(medianDur(relay))
	for _, r := range []string{"assign", "stream", "points", "fit", "sweep"} {
		v["http.handler_ms."+r] = ms(medianDur(handler[r]))
	}
}

func hasHTTP(ss []span) bool {
	for _, s := range ss {
		if strings.HasPrefix(s.Name, "http.") {
			return true
		}
	}
	return false
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %s %.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
