// Manycore: the CSE445 multithreading unit's performance study — validate
// the Collatz conjecture sequentially, with static partitioning, and with
// TBB-style dynamic scheduling, then print the paper's Figure 3 (the
// projection to 32 cores on the virtual-time executor) for the same range,
// with the course's speedup laws and a tour of its TBB-style abstractions
// in between.
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"soc/internal/collatz"
	"soc/internal/experiments"
	"soc/internal/perf"
	"soc/internal/vtime"
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
	fmt.Printf("\ndynamic on %d cores: speedup %.2fx, efficiency %.0f%%\n", workers, s, e*100)
	if work, err := perf.Work(td, workers); err == nil {
		fmt.Printf("work (p x Tp) %v against %v sequential\n", work, t1)
	}
	// The serial fraction the measured speedup implies (Karp-Flatt), and
	// what Amdahl's and Gustafson's laws predict from it at 32 cores.
	if f, err := perf.SerialFraction(s, workers); err == nil && f >= 0 && f <= 1 {
		a, _ := perf.Amdahl(f, 32)
		g, _ := perf.Gustafson(f, 32)
		fmt.Printf("serial fraction %.3f: Amdahl predicts %.1fx at 32 cores, Gustafson %.1fx\n", f, a, g)
	}
	fmt.Println()

	tbbTour(lo, lo+20_000, workers)
	fmt.Println()

	// The projection to the paper's 32 cores is Figure 3 itself — its cost
	// model and core counts (socbench -exp fig3), on this range.
	spec := experiments.DefaultFigure3
	spec.Lo, spec.Hi = lo, hi
	report, _, err := experiments.Figure3(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report)

	// Scheduling order matters on the virtual cores too: the chunks in
	// range order (greedy list scheduling) against longest first (LPT).
	tasks, err := collatz.Tasks(lo, hi, 5000)
	must(err)
	ex, err := vtime.NewExecutor(vtime.Config{})
	must(err)
	greedy, err := ex.Run(tasks, 32)
	must(err)
	lpt, err := ex.RunLPT(tasks, 32)
	must(err)
	fmt.Printf("\n32 virtual cores, %d chunks: makespan %d in range order, %d longest first\n",
		len(tasks), greedy.Makespan, lpt.Makespan)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
