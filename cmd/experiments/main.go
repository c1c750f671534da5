// Command experiments regenerates every evaluation artefact of the paper:
// the §4.4 message-complexity cases (E1–E4), the Campbell–Randell comparison
// (E5), the zero-overhead claim (E6), the Figure 1 strategy comparison (E7),
// the §4.3 worked examples (E8, E9), the Figure 3 abortion obligations
// (E10), the §3.3 domino effect (E11), the Figure 2 recovery modes (E12),
// the latency-vs-nesting-depth measurement (E13) and the §4.5
// centralised-vs-decentralised ablation (E14).
//
// Usage:
//
//	experiments              # run everything, aligned text tables
//	experiments -exp e5      # one experiment, e1..e14
//	experiments -markdown    # GitHub-flavoured markdown (for EXPERIMENTS.md)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id (e1..e14) or 'all'")
	markdown := fs.Bool("markdown", false, "render GitHub-flavoured markdown")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tables []experiments.Table
	if strings.EqualFold(*exp, "all") {
		all, err := experiments.All()
		if err != nil {
			return err
		}
		tables = all
	} else {
		tbl, err := experiments.ByID(strings.ToLower(*exp))
		if err != nil {
			return err
		}
		tables = []experiments.Table{tbl}
	}

	for i, tbl := range tables {
		if i > 0 {
			fmt.Println()
		}
		if *markdown {
			fmt.Print(tbl.Markdown())
		} else {
			fmt.Print(tbl.Render())
		}
	}
	return nil
}
