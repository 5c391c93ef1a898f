package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// op is one completed client operation. key groups repeated
// operations on the same input (fit-paper's dataset and algorithm).
type op struct {
	key string
	dur time.Duration
	pts int64
	end time.Duration // completion, as an offset into the interval
}

// recorder collects the operations of one measured interval. The main
// and side classes are the two halves of every workload's traffic (see
// README.md); named sub-operations (append, refit, sweep) are kept too
// so their medians can be printed. It is safe for concurrent use: each
// workload drives it from up to two client goroutines.
type recorder struct {
	mu        sync.Mutex
	start     time.Time // start of the measured interval
	main      []op
	side      []op
	progress  [2]map[int]int64 // points done per whole second of the interval, main and side
	sub       map[string][]time.Duration
	attempted int64
	failed    int64
	failures  []string
}

const (
	classMain = iota
	classSide
)

func newRecorder() *recorder {
	return &recorder{
		start:    time.Now(),
		progress: [2]map[int]int64{make(map[int]int64), make(map[int]int64)},
		sub:      make(map[string][]time.Duration),
	}
}

// done records pts points of a class finished now. Batch operations
// report at completion, streams per label chunk.
func (r *recorder) done(class int, pts int64) {
	sec := int(time.Since(r.start) / time.Second)
	r.mu.Lock()
	r.progress[class][sec] += pts
	r.mu.Unlock()
}

// rate is the median, over the whole seconds of an interval of length
// d, of the points a class finished in that second. A median second
// ignores the seconds a burst of CPU steal or a competing client's
// heavy operation slowed down, which a plain mean would not.
func (r *recorder) rate(class int, d time.Duration) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	secs := int(d / time.Second)
	vs := make([]float64, secs)
	for i := range vs {
		vs[i] = float64(r.progress[class][i])
	}
	return median(vs)
}

// add records one attempted operation of a class.
func (r *recorder) add(class int, key string, d time.Duration, pts int64) {
	o := op{key, d, pts, time.Since(r.start)}
	r.mu.Lock()
	if class == classMain {
		r.main = append(r.main, o)
	} else {
		r.side = append(r.side, o)
	}
	r.attempted++
	r.mu.Unlock()
}

// addSub records a named part of a side operation; it is not an
// operation of its own and does not count as attempted.
func (r *recorder) addSub(name string, d time.Duration) {
	r.mu.Lock()
	r.sub[name] = append(r.sub[name], d)
	r.mu.Unlock()
}

// check counts one correctness gate that is not itself a timed
// operation (a set-up or end-of-run check).
func (r *recorder) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
	if !ok {
		r.fail(format, args...)
	}
}

// fail marks one attempted operation as failed or wrong. The first few
// reasons are kept for the report.
func (r *recorder) fail(format string, args ...any) {
	r.mu.Lock()
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// absorb counts the gates of an unmeasured interval (a warm-up or the
// untraced half of a traced run) into r; their timings are dropped.
func (r *recorder) absorb(o *recorder) {
	r.mu.Lock()
	r.attempted += o.attempted
	r.failed += o.failed
	r.failures = append(r.failures, o.failures...)
	if len(r.failures) > 8 {
		r.failures = r.failures[:8]
	}
	r.mu.Unlock()
}

// opStats summarizes one class of operations.
type opStats struct {
	n        int
	ptsPerS  float64 // points ÷ busy seconds
	p50, p99 time.Duration
	beyond99 int // samples above the p99 rank (in each window, if windows > 1)
	windows  int // p99 is the median of this many windows' p99 (0: one p99 over all)
}

func summarize(ops []op) opStats {
	if len(ops) == 0 {
		return opStats{}
	}
	ds := make([]time.Duration, len(ops))
	var busy time.Duration
	var pts int64
	for i, o := range ops {
		ds[i] = o.dur
		busy += o.dur
		pts += o.pts
	}
	s := opStats{n: len(ops), p50: quantile(ds, 0.5), p99: quantile(ds, 0.99)}
	s.beyond99 = len(ops) - rank(len(ops), 0.99)
	if busy > 0 {
		s.ptsPerS = float64(pts) / busy.Seconds()
	}
	return s
}

// windowP99 replaces s.p99 by the median, over k equal windows of an
// interval of length d, of the p99 of the operations that finished in
// each window. A burst of CPU steal on a shared machine then moves only
// the tails of the windows it falls in, and the median passes over them
// while they are fewer than half; a p99 over the whole interval takes
// every burst in. beyond99 becomes the fewest samples beyond a window's
// p99.
func (s *opStats) windowP99(ops []op, d time.Duration, k int) {
	win := make([][]time.Duration, k)
	for _, o := range ops {
		w := min(max(int(int64(o.end)*int64(k)/int64(d)), 0), k-1)
		win[w] = append(win[w], o.dur)
	}
	var p99s []time.Duration
	s.beyond99 = len(ops)
	for _, ds := range win {
		if len(ds) == 0 {
			continue
		}
		p99s = append(p99s, quantile(ds, 0.99))
		s.beyond99 = min(s.beyond99, len(ds)-rank(len(ds), 0.99))
	}
	if len(p99s) > 0 {
		s.p99 = medianDur(p99s)
		s.windows = k
	}
}

// summarizeKeyed summarizes operations that repeat a fixed set of
// inputs: each key stands for the mean of its repetitions. A run holds
// three or four repetitions of each key, as the machine's speed allows;
// the fastest of them (best of N) moved with that count and with which
// repetition caught a fast spell of a shared machine, and spread twice
// as wide over seeds as the mean. Points per second is the points of one
// round over all keys divided by the sum of the key times; p50 is the
// median key and p99 the slowest key.
func summarizeKeyed(ops []op) opStats {
	durs := make(map[string][]time.Duration)
	pts := make(map[string]int64)
	for _, o := range ops {
		durs[o.key] = append(durs[o.key], o.dur)
		pts[o.key] = o.pts
	}
	s := opStats{n: len(ops)}
	var means []time.Duration
	var total time.Duration
	var round int64
	for k, ds := range durs {
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		m := sum / time.Duration(len(ds))
		means = append(means, m)
		total += m
		round += pts[k]
	}
	if total > 0 {
		s.ptsPerS = float64(round) / total.Seconds()
		s.p50 = medianDur(means)
		s.p99 = quantile(means, 1)
	}
	return s
}

// rank is the 1-based nearest-rank index of quantile q among n samples.
func rank(n int, q float64) int {
	k := int(math.Ceil(q * float64(n)))
	return min(max(k, 1), n)
}

// quantile returns the nearest-rank q-quantile of ds (which it sorts).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[rank(len(ds), q)-1]
}

// median of float values; 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianDur(ds []time.Duration) time.Duration {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = float64(d)
	}
	return time.Duration(median(vs))
}

// heapSampler tracks the peak live Go heap of the whole process —
// benchmark clients and in-process daemons together — as the largest
// heap the garbage collector found live at the end of a cycle. Unlike
// total heap size it does not depend on when collections happen. It
// polls runtime/metrics, which does not stop the world.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapMetric}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}
