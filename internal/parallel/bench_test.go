package parallel

import (
	"sync/atomic"
	"testing"
)

// skewedWork simulates irregular per-iteration cost: iteration i costs
// O(i % 64) — the load-balancing case dynamic scheduling exists for.
func skewedWork(i int) int64 {
	var acc int64
	for k := 0; k < i%64; k++ {
		acc += int64(k * i)
	}
	return acc
}

func BenchmarkForDynamicSkewed(b *testing.B) {
	var sink int64
	for b.Loop() {
		var local int64
		_ = For(0, 4096, func(j int) { atomic.AddInt64(&local, skewedWork(j)) }, Options{Grain: 64})
		sink += local
	}
	_ = sink
}

func BenchmarkForStaticSkewed(b *testing.B) {
	var sink int64
	for b.Loop() {
		var local int64
		_ = ForStatic(0, 4096, func(j int) { atomic.AddInt64(&local, skewedWork(j)) }, Options{})
		sink += local
	}
	_ = sink
}

func BenchmarkReduceSum(b *testing.B) {
	for b.Loop() {
		got, err := Reduce(0, 1<<16, int64(0),
			func(j int) int64 { return int64(j) },
			func(a, c int64) int64 { return a + c }, Options{})
		if err != nil || got != (1<<16-1)*(1<<16)/2 {
			b.Fatalf("got %d err %v", got, err)
		}
	}
}

func BenchmarkPipelineThroughput(b *testing.B) {
	p, err := NewPipeline(8,
		Stage[int]{Name: "a", Workers: 2, Fn: func(v int) (int, error) { return v + 1, nil }},
		Stage[int]{Name: "b", Workers: 2, Fn: func(v int) (int, error) { return v * 2, nil }},
	)
	if err != nil {
		b.Fatal(err)
	}
	in := make([]int, 512)
	for b.Loop() {
		if _, err := p.Run(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueuePutTake(b *testing.B) {
	q, err := NewQueue[int](1024)
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if q.TryPut(1) {
				_, _ = q.TryTake()
			}
		}
	})
}
