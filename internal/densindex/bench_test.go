package densindex

import (
	"testing"

	"repro/internal/core"
	"repro/internal/data"
)

// BenchmarkCut times one re-cut at a dataset's default d_cut from an
// index built at that ceiling. The AirlineLike window is noise-heavy:
// about a third of its points have no higher-density neighbor within
// the ceiling and take the kd-tree search. The S2 case beside it is
// dense, so almost every dependent comes from a stored list.
func BenchmarkCut(b *testing.B) {
	for _, bc := range []struct {
		name string
		d    *data.Dataset
	}{
		{"airline-20k", data.AirlineLike(20000, 11)},
		{"s2-20k", data.SSet(2, 20000, 11)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			idx, err := Build(bc.d.Points, bc.d.DCut, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			p := core.Params{DCut: bc.d.DCut, RhoMin: bc.d.RhoMin, DeltaMin: bc.d.DeltaMin}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := idx.Cut(p); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(treePathShare(idx, bc.d.DCut), "tree-share")
		})
	}
}
