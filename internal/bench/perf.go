package bench

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/eval"
)

// Table6 reproduces "Decomposed time [sec]": the rho-computation and
// delta-computation seconds of every algorithm on the four real-dataset
// stand-ins at default parameters.
func (c Config) Table6() error {
	w := c.w()
	header(w, fmt.Sprintf("Table 6: decomposed time [s] (n=%d per dataset, %d threads)", c.n(), c.threads()))
	dss := c.realDatasets()
	fmt.Fprintf(w, "%-14s", "Algorithm")
	for _, ds := range dss {
		fmt.Fprintf(w, " %10s-rho %10s-dlt", ds.Name, ds.Name)
	}
	fmt.Fprintln(w)
	for _, alg := range allAlgs() {
		fmt.Fprintf(w, "%-14s", alg.Name())
		for _, ds := range dss {
			res, err := run(alg, ds.Points, c.params(ds))
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %14.3f %14.3f", secs(res.Timing.Rho), secs(res.Timing.Delta))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Table7 reproduces "Memory usage [MB]" per algorithm on the four
// real-dataset stand-ins. Go's GC makes this approximate; the ordering
// (Ex-DPC smallest, grid algorithms above it, CFSFDP-A largest among
// accelerated exact baselines) is the reproduced shape.
func (c Config) Table7() error {
	w := c.w()
	header(w, fmt.Sprintf("Table 7: retained memory [MB] (n=%d per dataset)", c.n()))
	dss := c.realDatasets()
	algs := []core.Algorithm{
		core.RtreeScan{}, core.LSHDDP{}, core.CFSFDPA{},
		core.ExDPC{}, core.ApproxDPC{}, core.SApproxDPC{},
	}
	fmt.Fprintf(w, "%-14s", "Algorithm")
	for _, ds := range dss {
		fmt.Fprintf(w, " %10s", ds.Name)
	}
	fmt.Fprintln(w)
	for _, alg := range algs {
		fmt.Fprintf(w, "%-14s", alg.Name())
		for _, ds := range dss {
			p := c.params(ds)
			var keep *core.Result
			mem := eval.MeasureMem(func() {
				r, err := alg.ClusterDataset(ds.Points, p)
				if err != nil {
					panic(err)
				}
				keep = r
			})
			runtime.KeepAlive(keep)
			fmt.Fprintf(w, " %10s", eval.FormatMB(mem))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig7 reproduces "Impact of cardinality (sampling rate)": total running
// time of every algorithm while uniformly sampling each dataset at rates
// 0.5 ... 1.0.
func (c Config) Fig7() error {
	w := c.w()
	header(w, fmt.Sprintf("Figure 7: running time [s] vs sampling rate (n=%d at rate 1, %d threads)", c.n(), c.threads()))
	rates := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	for _, ds := range c.realDatasets() {
		fmt.Fprintf(w, "\n[%s]\n%-14s", ds.Name, "Algorithm")
		for _, r := range rates {
			fmt.Fprintf(w, " %8.1f", r)
		}
		fmt.Fprintln(w)
		for _, alg := range allAlgs() {
			fmt.Fprintf(w, "%-14s", alg.Name())
			for i, rate := range rates {
				sub := data.Sample(ds, rate, c.Seed+int64(i))
				res, err := run(alg, sub.Points, c.params(ds))
				if err != nil {
					return err
				}
				fmt.Fprintf(w, " %8.3f", secs(res.Timing.Total()))
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// Fig8 reproduces "Impact of d_cut": total running time under a cutoff
// sweep (500..1500 for the 1e5/1e6-domain datasets, 4000..6000 for
// Sensor, as in the paper).
func (c Config) Fig8() error {
	w := c.w()
	header(w, fmt.Sprintf("Figure 8: running time [s] vs d_cut (n=%d, %d threads)", c.n(), c.threads()))
	for _, ds := range c.realDatasets() {
		cuts := []float64{500, 750, 1000, 1250, 1500}
		if ds.Name == "Sensor" {
			cuts = []float64{4000, 4500, 5000, 5500, 6000}
		}
		fmt.Fprintf(w, "\n[%s]\n%-14s", ds.Name, "Algorithm")
		for _, dc := range cuts {
			fmt.Fprintf(w, " %8.0f", dc)
		}
		fmt.Fprintln(w)
		for _, alg := range allAlgs() {
			fmt.Fprintf(w, "%-14s", alg.Name())
			for _, dc := range cuts {
				p := c.params(ds)
				p.DCut = dc
				p.DeltaMin = dc * 3
				res, err := run(alg, ds.Points, p)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, " %8.3f", secs(res.Timing.Total()))
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// Fig9 reproduces "Impact of number of threads": total running time with
// 1, 2, 4, ... up to the host CPU count. The paper's key shapes: Ex-DPC
// plateaus (its delta phase is serial there), Approx-DPC and S-Approx-DPC
// keep scaling, LSH-DDP scales irregularly (no load balancing). This
// Ex-DPC runs its delta phase in parallel over blocks of the density
// order (see core.ExDPC), so its curve need not plateau as the paper's
// does.
func (c Config) Fig9() error {
	w := c.w()
	maxT := runtime.GOMAXPROCS(0)
	var threads []int
	for t := 1; t < maxT; t *= 2 {
		threads = append(threads, t)
	}
	threads = append(threads, maxT)
	header(w, fmt.Sprintf("Figure 9: running time [s] vs threads (n=%d)", c.n()))
	for _, ds := range c.realDatasets() {
		fmt.Fprintf(w, "\n[%s]\n%-14s", ds.Name, "Algorithm")
		for _, t := range threads {
			fmt.Fprintf(w, " %8d", t)
		}
		fmt.Fprintln(w)
		for _, alg := range allAlgs() {
			fmt.Fprintf(w, "%-14s", alg.Name())
			for _, t := range threads {
				p := c.params(ds)
				p.Workers = t
				res, err := run(alg, ds.Points, p)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, " %8.3f", secs(res.Timing.Total()))
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}
