package curriculum

import (
	"math"
	"strings"
	"testing"
)

func TestTable4MatchesPaperHeadlines(t *testing.T) {
	if len(EnrollmentTable) != 16 {
		t.Fatalf("rows = %d, want 16", len(EnrollmentTable))
	}
	first := EnrollmentTable[0]
	if first.Semester.String() != "2006 Fall" || first.PrintedTotal != 39 {
		t.Errorf("first row = %+v", first)
	}
	// "The combined enrollment has increased from 39 in Fall 2006 to 134
	// in Fall 2013."
	var fall2013 Enrollment
	for _, r := range EnrollmentTable {
		if r.Semester.Year == 2013 && r.Semester.Term == "Fall" {
			fall2013 = r
		}
	}
	if fall2013.PrintedTotal != 134 || fall2013.CSE445 != 44 || fall2013.CSE598 != 90 {
		t.Errorf("Fall 2013 = %+v", fall2013)
	}
	last := EnrollmentTable[len(EnrollmentTable)-1]
	if last.Semester.String() != "2014 Spring" || last.PrintedTotal != 112 {
		t.Errorf("last row = %+v", last)
	}
}

func TestTable4InternalConsistency(t *testing.T) {
	// Every row's printed total equals 445+598 except the known
	// 2009 Fall misprint (33+10=43 printed as 45).
	for _, r := range EnrollmentTable {
		if r.Semester.Year == 2009 && r.Semester.Term == "Fall" {
			if r.PrintedTotal != 45 || r.CSE445+r.CSE598 != 43 {
				t.Errorf("2009 Fall transcription changed: %+v", r)
			}
			continue
		}
		if r.CSE445+r.CSE598 != r.PrintedTotal {
			t.Errorf("%s: %d+%d != %d", r.Semester, r.CSE445, r.CSE598, r.PrintedTotal)
		}
	}
}

func TestTable5MatchesPaper(t *testing.T) {
	if len(EvaluationTable) != 13 {
		t.Fatalf("rows = %d, want 13", len(EvaluationTable))
	}
	if EvaluationTable[0].Score445 != 3.69 || EvaluationTable[0].Score598 != 4.37 {
		t.Errorf("first = %+v", EvaluationTable[0])
	}
	last := EvaluationTable[len(EvaluationTable)-1]
	if last.Semester.String() != "2013 Fall" || last.Score445 != 4.17 || last.Score598 != 4.63 {
		t.Errorf("last = %+v", last)
	}
	// All scores in the plausible [3.5, 5.0] band the paper shows.
	for _, r := range EvaluationTable {
		if r.Score445 < 3.5 || r.Score445 > 5 || r.Score598 < 3.5 || r.Score598 > 5 {
			t.Errorf("out-of-band score: %+v", r)
		}
	}
}

func TestGrowthFactor(t *testing.T) {
	g, err := GrowthFactor(EnrollmentTable)
	if err != nil {
		t.Fatal(err)
	}
	// 112/39 ≈ 2.87: enrollment roughly tripled.
	if g < 2.5 || g > 3.5 {
		t.Errorf("growth = %v", g)
	}
	if _, err := GrowthFactor(nil); err == nil {
		t.Error("empty rows accepted")
	}
}

func TestLinearTrendPositive(t *testing.T) {
	slope, err := LinearTrend(EnrollmentTable)
	if err != nil {
		t.Fatal(err)
	}
	if slope <= 0 {
		t.Errorf("slope = %v, want positive growth", slope)
	}
	// Roughly 39→112 over 15 steps ≈ 5/semester.
	if slope < 2 || slope > 10 {
		t.Errorf("slope = %v implausible", slope)
	}
	if _, err := LinearTrend(EnrollmentTable[:1]); err == nil {
		t.Error("single row accepted")
	}
}

func TestMeanScores(t *testing.T) {
	m445, m598, err := MeanScores(EvaluationTable)
	if err != nil {
		t.Fatal(err)
	}
	// 598 consistently rates above 445 in the paper.
	if m598 <= m445 {
		t.Errorf("mean598 %v <= mean445 %v", m598, m445)
	}
	if math.Abs(m445-4.27) > 0.1 || math.Abs(m598-4.50) > 0.1 {
		t.Errorf("means = %v, %v", m445, m598)
	}
	if _, _, err := MeanScores(nil); err == nil {
		t.Error("empty accepted")
	}
}

func TestFormatTables(t *testing.T) {
	t4 := FormatTable4(EnrollmentTable)
	for _, want := range []string{"2006 Fall", "134", "CSE445"} {
		if !strings.Contains(t4, want) {
			t.Errorf("table4 missing %q", want)
		}
	}
	t5 := FormatTable5(EvaluationTable)
	for _, want := range []string{"2013 Fall", "4.63"} {
		if !strings.Contains(t5, want) {
			t.Errorf("table5 missing %q", want)
		}
	}
}

func TestFigure5(t *testing.T) {
	chart, err := Figure5(EnrollmentTable)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"4", "5", "*", "134", "enrollment"} {
		if !strings.Contains(chart, want) {
			t.Errorf("figure 5 missing %q:\n%s", want, chart)
		}
	}
	lines := strings.Split(chart, "\n")
	if len(lines) < 14 {
		t.Errorf("chart too short: %d lines", len(lines))
	}
	if _, err := Figure5(nil); err == nil {
		t.Error("empty rows accepted")
	}
}

func TestAsciiChartValidation(t *testing.T) {
	if _, err := AsciiChart(1, nil, map[rune][]int{'x': {1}}); err == nil {
		t.Error("height 1 accepted")
	}
	if _, err := AsciiChart(5, nil, nil); err == nil {
		t.Error("no series accepted")
	}
	if _, err := AsciiChart(5, nil, map[rune][]int{'a': {1, 2}, 'b': {1}}); err == nil {
		t.Error("ragged series accepted")
	}
	if _, err := AsciiChart(5, nil, map[rune][]int{'a': {-1}}); err == nil {
		t.Error("negative value accepted")
	}
	out, err := AsciiChart(5, []string{"2006"}, map[rune][]int{'a': {0}})
	if err != nil || out == "" {
		t.Errorf("all-zero chart: %v", err)
	}
}

func TestACMTopicsCoverage(t *testing.T) {
	if len(ACMTopics) != 13 {
		t.Errorf("topics = %d, want 13 (6+3+4 across Tables 1-3)", len(ACMTopics))
	}
	counts := map[int]int{}
	for _, topic := range ACMTopics {
		counts[topic.Table]++
		if topic.Name == "" || topic.Outcome == "" || len(topic.Blooms) == 0 {
			t.Errorf("incomplete topic %+v", topic)
		}
		if len(topic.Modules) == 0 {
			t.Errorf("topic %q uncovered", topic.Name)
		}
		for _, m := range topic.Modules {
			if !strings.HasPrefix(m, "soc/internal/") {
				t.Errorf("topic %q references non-repo module %q", topic.Name, m)
			}
		}
	}
	if counts[1] != 6 || counts[2] != 3 || counts[3] != 4 {
		t.Errorf("per-table counts = %v", counts)
	}
	report, uncovered := CoverageReport(ACMTopics)
	if uncovered != 0 {
		t.Errorf("%d uncovered topics", uncovered)
	}
	if !strings.Contains(report, "Web services") || !strings.Contains(report, "soc/internal/perf") {
		t.Errorf("report:\n%s", report)
	}
	_, uncovered = CoverageReport([]Topic{{Name: "x", Blooms: []Bloom{Knowledge}}})
	if uncovered != 1 {
		t.Error("uncovered topic not flagged")
	}
}
