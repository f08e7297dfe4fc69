package collatz

import (
	"runtime"
	"testing"
)

func BenchmarkSteps27(b *testing.B) {
	for b.Loop() {
		if _, err := Steps(27); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValidate(b *testing.B) {
	const lo, hi = 1, 50_001
	b.Run("seq", func(b *testing.B) {
		for b.Loop() {
			if _, err := ValidateSeq(lo, hi); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("static", func(b *testing.B) {
		for b.Loop() {
			if _, err := ValidateStatic(lo, hi, runtime.GOMAXPROCS(0)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dynamic", func(b *testing.B) {
		for b.Loop() {
			if _, err := ValidateDynamic(lo, hi, runtime.GOMAXPROCS(0)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
