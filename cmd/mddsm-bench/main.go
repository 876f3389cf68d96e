// Command mddsm-bench regenerates the paper's evaluation results (§VII)
// as printed reports. Without flags it runs every experiment; -e selects
// one (e1..e6, "mixed" for the heterogeneous mixed-workload soak over
// generated synthetic domains, or "cluster" for the multi-node broker
// ladder: cross-node delivery, live migration, and node-kill failover at
// 2/3/5 nodes). The serving paths' performance is measured by the system
// benchmark in sysbench/.
//
// Usage:
//
//	mddsm-bench [-e e1|e2|e3|e4|e5|e6|mixed|cluster] [-iters N] [-root DIR]
//	mddsm-bench -e cluster -json BENCH_cluster.json
//
// -json applies to -e cluster only; -e mixed prints its table.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/mddsm/mddsm/internal/cliutil"
	"github.com/mddsm/mddsm/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mddsm-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mddsm-bench", flag.ContinueOnError)
	exp := fs.String("e", "", "experiment to run (e1..e6, mixed, cluster); empty runs all")
	iters := fs.Int("iters", 50, "iterations per scenario for timing experiments (e2)")
	root := fs.String("root", "", "repository root for source-size accounting (e5); auto-detected when empty")
	jsonOut := fs.String("json", "", `with -e cluster: write the machine-readable report to this path (e.g. BENCH_cluster.json)`)
	common := cliutil.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	w := os.Stdout
	if common.Faults != "" {
		if !common.Obs {
			return fmt.Errorf("-faults requires -obs")
		}
		return experiments.ReportObsFaults(w, common.Faults)
	}
	if common.Obs {
		return experiments.ReportObs(w)
	}

	all := map[string]func() error{
		"e1": func() error { return experiments.ReportE1(w) },
		"e2": func() error { return experiments.ReportE2(w, *iters) },
		"e3": func() error { return experiments.ReportE3(w) },
		"e4": func() error { return experiments.ReportE4(w) },
		"e5": func() error {
			dir := *root
			if dir == "" {
				var err error
				if dir, err = experiments.FindRepoRoot("."); err != nil {
					return fmt.Errorf("e5 needs the repository sources; pass -root: %w", err)
				}
			}
			return experiments.ReportE5(w, dir)
		},
		"e6":      func() error { return experiments.ReportE6(w) },
		"mixed":   func() error { return experiments.ReportMixed(w) },
		"cluster": func() error { return experiments.ReportCluster(w, *jsonOut) },
	}
	if *exp != "" {
		fn, ok := all[*exp]
		if !ok {
			return fmt.Errorf("unknown experiment %q (want e1..e6, mixed or cluster)", *exp)
		}
		return fn()
	}
	for _, name := range []string{"e1", "e2", "e3", "e4", "e5", "e6", "mixed", "cluster"} {
		if err := all[name](); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}
