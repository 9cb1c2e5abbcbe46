// Command tables regenerates Tables 1-4 of the paper.
//
// Usage:
//
//	tables [-table N] [-scale unit|test|full] [-seed N] [-workers N]
//	       [-cache-dir DIR] [-server URL]
//	       [-checkpoint-dir DIR] [-checkpoint-every N]
//
// Without -table, all four tables are printed.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/experiments"
)

func main() {
	table := flag.Int("table", 0, "table number (1-4; 0 = all)")
	r, cleanup, err := cliutil.Setup("tables", cliutil.Options{})
	if err != nil {
		fatal(err)
	}
	defer cleanup()

	run := func(n int) error {
		switch n {
		case 1:
			return r.Table1(os.Stdout)
		case 2:
			return r.Table2(os.Stdout)
		case 3:
			rows, err := r.Table3()
			if err != nil {
				return err
			}
			experiments.WriteTable3(os.Stdout, rows)
			return nil
		case 4:
			return r.Table4(os.Stdout)
		default:
			return fmt.Errorf("no table %d", n)
		}
	}

	if *table != 0 {
		if err := run(*table); err != nil {
			fatal(err)
		}
		return
	}
	for n := 1; n <= 4; n++ {
		if err := run(n); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tables:", err)
	os.Exit(1)
}
