package maze

import "testing"

func BenchmarkGenerate(b *testing.B) {
	algs := map[string]Algorithm{"dfs": DFS, "prim": Prim, "division": Division}
	for name, alg := range algs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := Generate(31, 31, alg, int64(i))
				if err != nil || !solvable(m) {
					b.Fatalf("seed %d: %v", i, err)
				}
			}
		})
	}
}

func BenchmarkDistances(b *testing.B) {
	m, err := Generate(31, 31, DFS, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(s); err != nil {
			b.Fatal(err)
		}
	}
}
