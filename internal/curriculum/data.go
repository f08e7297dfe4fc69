// Package curriculum holds the paper's evaluation data and analytics: the
// ACM CS topic coverage of Tables 1–3 (with Bloom levels and the modules
// of this repository that exercise each topic), the CSE445/598 enrollment
// history of Table 4, the student evaluation scores of Table 5, the
// ASCII rendition of Figure 5, and trend statistics.
package curriculum

// Semester identifies a term.
type Semester struct {
	Year int
	Term string // "Spring" or "Fall"
}

// String renders "2006 Fall".
func (s Semester) String() string { return itoa(s.Year) + " " + s.Term }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// Enrollment is one row of Table 4.
type Enrollment struct {
	Semester Semester
	CSE445   int
	CSE598   int
	// PrintedTotal is the total column as printed in the paper. For
	// 2009 Fall the paper prints 45 although 33+10=43; we preserve the
	// printed value and leave the sum to the reader.
	PrintedTotal int
}

// EnrollmentTable is Table 4 of the paper, verbatim.
var EnrollmentTable = []Enrollment{
	{Semester{2006, "Fall"}, 25, 14, 39},
	{Semester{2007, "Spring"}, 16, 16, 32},
	{Semester{2007, "Fall"}, 24, 21, 45},
	{Semester{2008, "Spring"}, 39, 8, 47},
	{Semester{2008, "Fall"}, 35, 23, 58},
	{Semester{2009, "Spring"}, 38, 13, 51},
	{Semester{2009, "Fall"}, 33, 10, 45},
	{Semester{2010, "Spring"}, 38, 22, 60},
	{Semester{2010, "Fall"}, 42, 34, 76},
	{Semester{2011, "Spring"}, 50, 20, 70},
	{Semester{2011, "Fall"}, 30, 52, 82},
	{Semester{2012, "Spring"}, 52, 15, 67},
	{Semester{2012, "Fall"}, 42, 35, 77},
	{Semester{2013, "Spring"}, 55, 38, 93},
	{Semester{2013, "Fall"}, 44, 90, 134},
	{Semester{2014, "Spring"}, 50, 62, 112},
}

// Evaluation is one row of Table 5 (course evaluation scores out of 5.0).
type Evaluation struct {
	Semester Semester
	Score445 float64
	Score598 float64
}

// EvaluationTable is Table 5 of the paper, verbatim.
var EvaluationTable = []Evaluation{
	{Semester{2006, "Fall"}, 3.69, 4.37},
	{Semester{2007, "Spring"}, 3.99, 4.13},
	{Semester{2007, "Fall"}, 4.03, 4.33},
	{Semester{2008, "Fall"}, 4.52, 4.81},
	{Semester{2009, "Spring"}, 4.22, 4.37},
	{Semester{2010, "Spring"}, 4.44, 4.46},
	{Semester{2010, "Fall"}, 4.56, 4.63},
	{Semester{2011, "Spring"}, 4.49, 4.52},
	{Semester{2011, "Fall"}, 4.44, 4.53},
	{Semester{2012, "Spring"}, 4.55, 4.66},
	{Semester{2012, "Fall"}, 4.36, 4.60},
	{Semester{2013, "Spring"}, 4.13, 4.50},
	{Semester{2013, "Fall"}, 4.17, 4.63},
}

// Bloom is a Bloom's-taxonomy learning objective level.
type Bloom string

// The levels used by the paper's tables.
const (
	Knowledge     Bloom = "K"
	Comprehension Bloom = "C"
	Application   Bloom = "A"
)

// Topic is one ACM CS curriculum topic row from Tables 1–3.
type Topic struct {
	Table   int // 1: programming, 2: algorithms, 3: cross-cutting
	Name    string
	Blooms  []Bloom
	Outcome string
	// Modules lists the soc packages that exercise the topic in this
	// reproduction — the coverage mapping checked by the Table 1–3
	// experiment.
	Modules []string
}

// ACMTopics transcribes Tables 1–3 with this repository's module mapping.
var ACMTopics = []Topic{
	{1, "Client Server", []Bloom{Comprehension},
		"notions of invoking and providing services (RPC, web services) as concurrent processes",
		[]string{"soc/internal/core", "soc/internal/soap", "soc/internal/rest", "soc/internal/host"}},
	{1, "Task/thread spawning", []Bloom{Application},
		"write correct programs with threads, synchronize, use dynamic thread creation",
		[]string{"soc/internal/parallel"}},
	{1, "Libraries", []Bloom{Application},
		"know one task-parallel library in detail (TBB/TPL analogues)",
		[]string{"soc/internal/parallel"}},
	{1, "Tasks and threads", []Bloom{Knowledge},
		"relationship between tasks/threads and cores; context-switch impact",
		[]string{"soc/internal/parallel", "soc/internal/vtime"}},
	{1, "Synchronization", []Bloom{Application},
		"shared-memory programs with critical regions, producer-consumer; monitors, semaphores",
		[]string{"soc/internal/parallel"}},
	{1, "Performance metrics", []Bloom{Comprehension},
		"speedup, efficiency, work, cost, Amdahl's law, scalability",
		[]string{"soc/internal/perf"}},
	{2, "Speedup", []Bloom{Comprehension},
		"use parallelism to solve the same problem faster or a larger problem in the same time",
		[]string{"soc/internal/collatz", "soc/internal/perf"}},
	{2, "Scalability in algorithms and architectures", []Bloom{Knowledge},
		"more processors does not always mean faster execution",
		[]string{"soc/internal/vtime", "soc/internal/perf"}},
	{2, "Dependencies", []Bloom{Knowledge, Application},
		"impact of dependencies; data dependencies in web caching applications",
		[]string{"soc/internal/session"}},
	{3, "Cloud", []Bloom{Knowledge},
		"on-demand, virtualized, service-oriented shared resources",
		[]string{"soc/internal/cloud"}},
	{3, "P2P", []Bloom{Knowledge},
		"server and client roles of nodes with distributed data",
		[]string{"soc/internal/registry", "soc/internal/crawler"}},
	{3, "Security in Distributed Systems", []Bloom{Knowledge},
		"distributed systems are more vulnerable; attack modes; privacy/security tension",
		[]string{"soc/internal/security", "soc/internal/reliability"}},
	{3, "Web services", []Bloom{Application},
		"develop web services and service clients to invoke services",
		[]string{"soc/internal/core", "soc/internal/host", "soc/internal/services"}},
}
