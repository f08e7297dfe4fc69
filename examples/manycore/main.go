// Manycore: the CSE445 multithreading unit's performance study — validate
// the Collatz conjecture sequentially, with static partitioning, and with
// TBB-style dynamic scheduling, then print the paper's Figure 3 (the
// projection to 32 cores on the virtual-time executor) for the same range.
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"soc/internal/collatz"
	"soc/internal/experiments"
	"soc/internal/perf"
)

func main() {
	const lo, hi = 1, 500_001
	fmt.Printf("validating Collatz for [%d, %d) on %d host cores\n\n", lo, hi, runtime.GOMAXPROCS(0))

	seq, err := collatz.ValidateSeq(lo, hi)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential: %d numbers verified, longest trajectory %d steps (at %d)\n\n",
		seq.Verified, seq.MaxSteps, seq.MaxAt)

	// Static vs dynamic scheduling: the irregular trajectory lengths are
	// why dynamic chunking wins.
	workers := runtime.GOMAXPROCS(0)
	measure := func(name string, fn func() (collatz.Result, error)) time.Duration {
		stats, err := perf.Measure(3, func() {
			r, err := fn()
			if err != nil || r.TotalSteps != seq.TotalSteps {
				log.Fatalf("%s: %v", name, err)
			}
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %v\n", name, stats.Min)
		return stats.Min
	}
	t1 := measure("1-core", func() (collatz.Result, error) { return collatz.ValidateSeq(lo, hi) })
	measure("static", func() (collatz.Result, error) { return collatz.ValidateStatic(lo, hi, workers) })
	td := measure("dynamic", func() (collatz.Result, error) { return collatz.ValidateDynamic(lo, hi, workers) })
	s, _ := perf.Speedup(t1, td)
	e, _ := perf.Efficiency(t1, td, workers)
	fmt.Printf("\ndynamic on %d cores: speedup %.2fx, efficiency %.0f%%\n\n", workers, s, e*100)

	// The projection to the paper's 32 cores is Figure 3 itself — its cost
	// model and core counts (socbench -exp fig3), on this range.
	spec := experiments.DefaultFigure3
	spec.Lo, spec.Hi = lo, hi
	report, _, err := experiments.Figure3(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report)
}
