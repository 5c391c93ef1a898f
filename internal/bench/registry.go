package bench

import (
	"sort"
)

// Experiment names one regenerable artifact of the paper.
type Experiment struct {
	Name  string
	Title string
	Run   func(Config) error
}

// Experiments returns the registry of all regenerable tables and figures
// in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", "Decision graph of S2", Config.Fig1},
		{"fig2", "DPC vs DBSCAN quality on S2", Config.Fig2},
		{"table2", "Rand index vs noise rate on Syn", Config.Table2},
		{"table3", "Rand index on S1-S4", Config.Table3},
		{"table4", "Rand index on real-dataset stand-ins", Config.Table4},
		{"table5", "S-Approx-DPC epsilon sweep", Config.Table5},
		{"fig6", "2-D visualization on Syn", Config.Fig6},
		{"fig7", "Running time vs sampling rate", Config.Fig7},
		{"fig8", "Running time vs d_cut", Config.Fig8},
		{"fig9", "Running time vs threads", Config.Fig9},
		{"table6", "Decomposed rho/delta time", Config.Table6},
		{"table7", "Memory usage", Config.Table7},
		{"others", "Dropped competitors (FastDPeak, DPCG, CFSFDP-DE)", Config.Others},
		{"abl-joint", "Ablation: joint vs per-point range search", Config.AblJoint},
		{"abl-sched", "Ablation: scheduling strategies", Config.AblSched},
		{"abl-subsets", "Ablation: subset count s", Config.AblSubsets},
		{"service", "Fit-once/assign-many serving latency and cache hit rate", Config.Service},
		{"wire", "Binary frame codec vs JSON on the assign wire path", Config.Wire},
		{"sweep", "Parameter sweep: one density index vs K fresh fits", Config.ParamSweep},
		{"drift", "Drift-tracking assign overhead and background refit swap", Config.Drift},
	}
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Names returns the sorted experiment names, for usage messages.
func Names() []string {
	var out []string
	for _, e := range Experiments() {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}
