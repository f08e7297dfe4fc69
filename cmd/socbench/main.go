// Command socbench regenerates every table and figure of the paper plus
// the ablation studies:
//
//	socbench -exp all
//	socbench -exp fig3
//	socbench -list
//
// Experiments: fig1 fig2 fig3 fig4 table4 table5 acm textbook crawl
// bindings workflow state cloud dependability.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"soc/internal/experiments"
)

type experiment struct {
	name string
	desc string
	run  func(ctx context.Context, dataDir string) (string, error)
}

func catalog() []experiment {
	return []experiment{
		{"fig1", "web robotics programming environment (Figure 1)",
			func(ctx context.Context, _ string) (string, error) { return experiments.Figure1(ctx, 3) }},
		{"fig2", "two-distance greedy vs baselines (Figure 2)",
			func(ctx context.Context, _ string) (string, error) {
				out, _, err := experiments.Figure2(ctx, experiments.DefaultFigure2)
				return out, err
			}},
		{"fig3", "Collatz speedup and efficiency, 1-32 cores (Figure 3)",
			func(context.Context, string) (string, error) {
				out, _, err := experiments.Figure3(experiments.DefaultFigure3)
				return out, err
			}},
		{"fig4", "account application web app end-to-end (Figure 4)",
			func(_ context.Context, dataDir string) (string, error) { return experiments.Figure4(dataDir) }},
		{"table4", "enrollment history + Figure 5 plot (Table 4)",
			func(context.Context, string) (string, error) { return experiments.Table4() }},
		{"table5", "student evaluation scores (Table 5)",
			func(context.Context, string) (string, error) { return experiments.Table5() }},
		{"acm", "ACM CS topic coverage (Tables 1-3)",
			func(context.Context, string) (string, error) { return experiments.TablesACM() }},
		{"textbook", "textbook chapter coverage (Section VI)",
			func(context.Context, string) (string, error) { return experiments.Textbook() }},
		{"crawl", "service crawler + availability monitor (A1)",
			func(ctx context.Context, _ string) (string, error) { return experiments.Crawl(ctx) }},
		{"bindings", "SOAP vs REST binding overhead (A2)",
			func(context.Context, string) (string, error) { return experiments.Bindings(0) }},
		{"workflow", "workflow orchestration overhead (A3)",
			func(context.Context, string) (string, error) { return experiments.WorkflowOverhead(0) }},
		{"state", "cache hit-ratio sweep (A4)",
			func(context.Context, string) (string, error) { return experiments.StateManagement(0) }},
		{"cloud", "autoscaler elasticity (A5)",
			func(context.Context, string) (string, error) { return experiments.CloudScale() }},
		{"dependability", "fault injection with breaker + failover (A6)",
			func(context.Context, string) (string, error) { return experiments.Dependability() }},
	}
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (or 'all')")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	exps := catalog()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-14s %s\n", e.name, e.desc)
		}
		return
	}
	dataDir, err := os.MkdirTemp("", "socbench-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "socbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dataDir)

	ctx := context.Background()
	failed := 0
	ran := 0
	for _, e := range exps {
		if *exp != "all" && e.name != *exp {
			continue
		}
		ran++
		fmt.Printf("==== %s — %s ====\n\n", e.name, e.desc)
		out, err := e.run(ctx, dataDir)
		fmt.Println(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "socbench: %s FAILED: %v\n\n", e.name, err)
			failed++
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "socbench: unknown experiment %q; valid: %s all\n",
			*exp, strings.Join(names(exps), " "))
		os.Exit(2)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func names(exps []experiment) []string {
	out := make([]string, len(exps))
	for i, e := range exps {
		out[i] = e.name
	}
	return out
}
