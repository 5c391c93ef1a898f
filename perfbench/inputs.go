package main

import (
	"math/rand"

	"repro/internal/data"
	"repro/internal/geom"
)

// worldSeed fixes each stand-in's structure (hub centers, sizes and
// spreads) the way a real dataset file is fixed. A run's --seed only
// draws which of the stand-in's points it uses, in which order, and its
// query and append pools, so runs with different seeds measure the same
// dataset, sampled afresh.
const worldSeed = 20210620

// draw generates a population of pop points of a stand-in and returns n
// of them, chosen and ordered by seed. n <= pop.
func draw(gen func(n int, seed int64) *data.Dataset, pop, n int, seed int64) *data.Dataset {
	d := gen(pop, worldSeed)
	dim := d.Points.Dim
	coords := make([]float64, 0, n*dim)
	for _, i := range rand.New(rand.NewSource(seed)).Perm(pop)[:n] {
		coords = append(coords, d.Points.At(i)...)
	}
	out := *d
	out.Points = geom.NewDataset(coords, dim)
	return &out
}
