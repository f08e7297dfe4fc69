package perf

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSpeedup(t *testing.T) {
	s, err := Speedup(8*time.Second, 2*time.Second)
	if err != nil {
		t.Fatalf("Speedup: %v", err)
	}
	if !almostEqual(s, 4, 1e-9) {
		t.Errorf("speedup = %v, want 4", s)
	}
}

func TestSpeedupRejectsNonPositive(t *testing.T) {
	cases := []struct{ t1, tp time.Duration }{
		{0, time.Second}, {time.Second, 0}, {-time.Second, time.Second},
	}
	for _, c := range cases {
		if _, err := Speedup(c.t1, c.tp); err == nil {
			t.Errorf("Speedup(%v,%v) accepted invalid input", c.t1, c.tp)
		}
	}
}

func TestEfficiency(t *testing.T) {
	e, err := Efficiency(8*time.Second, 2*time.Second, 8)
	if err != nil {
		t.Fatalf("Efficiency: %v", err)
	}
	if !almostEqual(e, 0.5, 1e-9) {
		t.Errorf("efficiency = %v, want 0.5", e)
	}
	if _, err := Efficiency(time.Second, time.Second, 0); err == nil {
		t.Error("Efficiency accepted p=0")
	}
}

func TestWorkAndCost(t *testing.T) {
	w, err := Work(3*time.Second, 4)
	if err != nil {
		t.Fatalf("Work: %v", err)
	}
	if w != 12*time.Second {
		t.Errorf("work = %v, want 12s", w)
	}
}

func TestAmdahlLimits(t *testing.T) {
	// Fully parallel program: speedup = p.
	s, err := Amdahl(0, 16)
	if err != nil || !almostEqual(s, 16, 1e-9) {
		t.Errorf("Amdahl(0,16) = %v,%v want 16", s, err)
	}
	// Fully serial program: speedup = 1 regardless of p.
	s, err = Amdahl(1, 1024)
	if err != nil || !almostEqual(s, 1, 1e-9) {
		t.Errorf("Amdahl(1,1024) = %v,%v want 1", s, err)
	}
	// 10% serial on 32 cores: the classic ~7.8x ceiling region.
	s, err = Amdahl(0.1, 32)
	if err != nil || !almostEqual(s, 1/(0.1+0.9/32), 1e-9) {
		t.Errorf("Amdahl(0.1,32) = %v,%v", s, err)
	}
}

func TestGustafson(t *testing.T) {
	s, err := Gustafson(0.1, 32)
	if err != nil || !almostEqual(s, 32-0.1*31, 1e-9) {
		t.Errorf("Gustafson(0.1,32) = %v,%v", s, err)
	}
}

func TestSerialFractionInvertsAmdahl(t *testing.T) {
	for _, f := range []float64{0.01, 0.1, 0.25, 0.5, 0.9} {
		for _, p := range []int{2, 4, 8, 32} {
			s, err := Amdahl(f, p)
			if err != nil {
				t.Fatalf("Amdahl(%v,%d): %v", f, p, err)
			}
			got, err := SerialFraction(s, p)
			if err != nil {
				t.Fatalf("SerialFraction: %v", err)
			}
			if !almostEqual(got, f, 1e-9) {
				t.Errorf("SerialFraction(Amdahl(%v,%d)) = %v", f, p, got)
			}
		}
	}
}

func TestSpeedupEfficiencyProperty(t *testing.T) {
	// Property: for any valid t1, tp, p: efficiency*p == speedup.
	prop := func(t1ms, tpms uint16, p uint8) bool {
		t1 := time.Duration(int64(t1ms)+1) * time.Millisecond
		tp := time.Duration(int64(tpms)+1) * time.Millisecond
		np := int(p%64) + 1
		s, err1 := Speedup(t1, tp)
		e, err2 := Efficiency(t1, tp, np)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(e*float64(np), s, 1e-9*s)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestAmdahlMonotoneInP(t *testing.T) {
	// Property: Amdahl speedup is nondecreasing in p for fixed f.
	prop := func(fRaw uint8, pRaw uint8) bool {
		f := float64(fRaw) / 256.0
		p := int(pRaw%100) + 1
		s1, err1 := Amdahl(f, p)
		s2, err2 := Amdahl(f, p+1)
		return err1 == nil && err2 == nil && s2+1e-12 >= s1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	samples := []Sample{{4 * time.Millisecond}, {2 * time.Millisecond}, {6 * time.Millisecond}}
	st, err := Summarize(samples)
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if st.N != 3 || st.Min != 2*time.Millisecond || st.Max != 6*time.Millisecond {
		t.Errorf("stats = %+v", st)
	}
	if st.Median != 4*time.Millisecond {
		t.Errorf("median = %v, want 4ms", st.Median)
	}
	if st.Mean != 4*time.Millisecond {
		t.Errorf("mean = %v, want 4ms", st.Mean)
	}
}

func TestSummarizeEvenMedian(t *testing.T) {
	samples := []Sample{{2 * time.Millisecond}, {4 * time.Millisecond}}
	st, err := Summarize(samples)
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if st.Median != 3*time.Millisecond {
		t.Errorf("even median = %v, want 3ms", st.Median)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Error("Summarize(nil) succeeded")
	}
}

func TestMeasureRuns(t *testing.T) {
	n := 0
	st, err := Measure(5, func() { n++ })
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if n != 5 || st.N != 5 {
		t.Errorf("ran %d times, stats.N=%d; want 5", n, st.N)
	}
	if _, err := Measure(0, func() {}); err == nil {
		t.Error("Measure(0) succeeded")
	}
	if _, err := Measure(1, nil); err == nil {
		t.Error("Measure(nil fn) succeeded")
	}
}

func TestScalingStudy(t *testing.T) {
	procs := []int{1, 2, 4}
	times := []time.Duration{8 * time.Second, 4 * time.Second, 3 * time.Second}
	pts, err := ScalingStudy(procs, times)
	if err != nil {
		t.Fatalf("ScalingStudy: %v", err)
	}
	if !almostEqual(pts[1].Speedup, 2, 1e-9) || !almostEqual(pts[1].Efficiency, 1, 1e-9) {
		t.Errorf("p=2 point = %+v", pts[1])
	}
	if !almostEqual(pts[2].Speedup, 8.0/3, 1e-9) {
		t.Errorf("p=4 speedup = %v", pts[2].Speedup)
	}
}

func TestScalingStudyRequiresBaseline(t *testing.T) {
	_, err := ScalingStudy([]int{2, 4}, []time.Duration{time.Second, time.Second})
	if err == nil {
		t.Error("ScalingStudy without p=1 succeeded")
	}
	_, err = ScalingStudy([]int{1}, nil)
	if err == nil {
		t.Error("ScalingStudy with mismatched lengths succeeded")
	}
}

func TestFormatScalingContainsRows(t *testing.T) {
	pts := []ScalingPoint{{P: 1, Elapsed: time.Second, Speedup: 1, Efficiency: 1}}
	out := FormatScaling(pts)
	if out == "" || len(out) < 10 {
		t.Errorf("FormatScaling output too short: %q", out)
	}
}
