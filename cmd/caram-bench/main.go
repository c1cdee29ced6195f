// Command caram-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	caram-bench -list
//	caram-bench -experiment table2
//	caram-bench -experiment all -full
//
// By default datasets are scaled down by a power of two with every
// load factor preserved (the statistics Tables 2 and 3 measure are
// functions of the load factor, so the shape is unchanged); -full runs
// the paper's exact dataset sizes (186,760 prefixes and 5,385,231
// trigram entries; takes a few minutes).
package main

import (
	"flag"
	"fmt"
	"os"

	"caram/internal/exp"
)

func main() {
	var (
		name = flag.String("experiment", "all", "experiment name, or 'all'")
		full = flag.Bool("full", false, "use the paper's full dataset sizes")
		seed = flag.Int64("seed", 1, "dataset synthesis seed")
		list = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		fmt.Print(exp.List())
		return
	}

	sc := exp.DefaultScale()
	if *full {
		sc = exp.FullScale()
	}
	sc.Seed = *seed

	var out string
	var err error
	if *name == "all" {
		out, err = exp.RunAll(sc)
	} else {
		out, err = exp.Run(*name, sc)
	}
	fmt.Print(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "caram-bench:", err)
		os.Exit(1)
	}
}
