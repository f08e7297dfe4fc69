package maze

import "testing"

func BenchmarkGenerate(b *testing.B) {
	algs := map[string]Algorithm{"dfs": DFS, "prim": Prim, "division": Division}
	for name, alg := range algs {
		b.Run(name, func(b *testing.B) {
			var seed int64
			for b.Loop() {
				m, err := Generate(31, 31, alg, seed)
				if err != nil || !solvable(m) {
					b.Fatalf("seed %d: %v", seed, err)
				}
				seed++
			}
		})
	}
}

func BenchmarkDistances(b *testing.B) {
	m, err := Generate(31, 31, DFS, 1)
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if _, err := m.Distances(m.Goal); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStringParse(b *testing.B) {
	m, err := Generate(31, 31, Prim, 1)
	if err != nil {
		b.Fatal(err)
	}
	s := m.String()
	for b.Loop() {
		if _, err := Parse(s); err != nil {
			b.Fatal(err)
		}
	}
}
