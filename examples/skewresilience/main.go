// Skewresilience: the Table 2 effect, live. A skewed equi-join (a few
// very popular keys, Zipf-like) is run through the content-sensitive
// symmetric hash join and through the content-insensitive adaptive
// operator on the same number of machines. SHJ's hash partitioning
// funnels the hot keys to a handful of workers; the grid operator's
// random routing keeps every machine equally loaded.
//
// Both are the same squall.Operator on its two routes — NewSHJ builds
// the hash route, NewEngine the grid — so one drive function runs them
// identically, and the only difference measured is the partitioning.
package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	squall "repro"
)

const (
	machines = 16
	tuples   = 60000
	keys     = 2000
)

// zipfKey draws a key with approximately 1/rank mass.
func zipfKey(rng *rand.Rand) int64 {
	z := rng.ExpFloat64() * 1.7
	k := int64(math.Exp(z))
	if k >= keys {
		k = keys - 1
	}
	return k
}

// run drives any engine over the same skewed stream and reports its
// hottest machine against its own mean load.
func run(name string, e squall.Engine, out *atomic.Int64) {
	e.Start()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < tuples; i++ {
		side := squall.SideR
		if i%2 == 1 {
			side = squall.SideS
		}
		if err := e.Send(squall.Tuple{Rel: side, Key: zipfKey(rng), Size: 16}); err != nil {
			panic(err)
		}
	}
	if err := e.Finish(); err != nil {
		panic(err)
	}
	// Imbalance is each operator's hottest machine against its own
	// mean load (the grid operator's mean includes replication).
	m := e.Metrics()
	mean := m.TotalInputTuples() / int64(machines)
	fmt.Printf("%-8s results=%-9d hottest machine=%6d tuples = %.2fx its mean load\n",
		name, out.Load(), m.MaxILFTuples(), float64(m.MaxILFTuples())/float64(mean))
}

func main() {
	fmt.Printf("skewed equi-join, %d machines, %d tuples, Zipf-like keys\n\n", machines, tuples)

	var shjOut atomic.Int64
	shj, err := squall.NewSHJ(squall.Equi("skewed"),
		squall.Each(func(squall.Pair) { shjOut.Add(1) }),
		squall.WithJoiners(machines),
	)
	if err != nil {
		panic(err)
	}
	run("SHJ", shj, &shjOut)

	var dynOut atomic.Int64
	dyn := squall.NewEngine(squall.Equi("skewed"),
		squall.Each(func(squall.Pair) { dynOut.Add(1) }),
		squall.WithJoiners(machines),
		squall.WithAdaptive(),
		squall.WithWarmup(1000),
	)
	run("Dynamic", dyn, &dynOut)

	fmt.Printf("\nBoth emit identical results; SHJ concentrates the hot keys on a few\n")
	fmt.Printf("workers while Dynamic's random routing stays balanced (the Dynamic\n")
	fmt.Printf("figure includes its replication: each tuple is stored on one row or\n")
	fmt.Printf("column of the %v grid).\n", dyn.(*squall.Operator).DeployedMapping())
}
