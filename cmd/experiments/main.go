// Command experiments regenerates every table and figure of the paper's
// evaluation (§7) on the modeled clusters and prints them as aligned
// text tables.
//
// Usage:
//
//	experiments [-scale 0.3] [-sources 5] [-only fig7,table4]
//
// Experiment ids: fig7, fig8, fig9 (also produces fig10/fig11), table4,
// table5, fig12, fig13, fig14, fig15 (also fig16), table1, lambda,
// ablations, and the extension study streamorder. The default runs
// everything; an id that is none of these is a usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"paragon/internal/exp"
)

func main() {
	scale := flag.Float64("scale", 0.3, "dataset size multiplier (1.0 = standard reproduction size)")
	sources := flag.Int("sources", 5, "BFS/SSSP source vertices per measurement (paper: 15)")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, e := range exp.Manifest() {
			fmt.Printf("%-12s %-22s %s\n", e.ID, e.Paper, e.What)
		}
		return
	}

	want := map[string]bool{}
	if *only != "" {
		// fig10/fig11 and fig16 are tables of the fig9 and fig15 runs.
		known := map[string]bool{"fig10": true, "fig11": true, "fig16": true}
		for _, e := range exp.Manifest() {
			known[e.ID] = true
		}
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			if !known[id] {
				usage("unknown experiment %q in -only (see -list)", id)
			}
			want[id] = true
		}
		if len(want) == 0 {
			usage("no experiment matched -only=%q", *only)
		}
	}
	sel := func(id string) bool { return len(want) == 0 || want[id] }

	start := time.Now()
	ran := 0
	emit := func(tables ...*exp.Table) {
		for _, t := range tables {
			if *csv {
				fmt.Println(t.CSV())
			} else {
				fmt.Println(t.String())
			}
			ran++
		}
	}

	if sel("fig7") {
		a, b := exp.Fig7(*scale)
		emit(a, b)
	}
	if sel("fig8") {
		emit(exp.Fig8(*scale))
	}
	if sel("fig9") || sel("fig10") || sel("fig11") {
		emit(exp.Fig9to11(*scale)...)
	}
	if sel("table4") {
		emit(exp.Table4(*scale, *sources))
	}
	if sel("table5") {
		emit(exp.Table5(*scale, *sources))
	}
	if sel("fig12") {
		emit(exp.Fig12(*scale, *sources))
	}
	if sel("fig13") {
		emit(exp.Fig13(*scale, *sources))
	}
	if sel("fig14") {
		emit(exp.Fig14(*scale, *sources))
	}
	if sel("fig15") || sel("fig16") {
		a, b := exp.Fig15and16(*scale, *sources)
		emit(a, b)
	}
	if sel("table1") {
		emit(exp.Table1())
	}
	if sel("lambda") {
		emit(exp.LambdaSweep(*scale, *sources))
	}
	if sel("ablations") {
		emit(exp.AblationKHop(*scale), exp.AblationServerPenalty(*scale), exp.AblationUniformCost(*scale))
	}
	if sel("streamorder") {
		emit(exp.StreamOrderStudy(*scale))
	}

	fmt.Printf("ran %d tables in %s (scale %.2f, %d sources)\n", ran, time.Since(start).Round(time.Millisecond), *scale, *sources)
}

// usage reports a bad -only list and exits with the flag package's usage
// status.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(2)
}
