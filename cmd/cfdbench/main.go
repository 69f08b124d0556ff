// Command cfdbench regenerates the figures of the paper's experimental study
// (§6) and prints them as text tables.
//
// Usage:
//
//	cfdbench -fig all            # every figure at the scaled-down default size
//	cfdbench -fig fig05          # one figure
//	cfdbench -fig fig07 -full    # paper-scale sweep (can take hours)
//	cfdbench -fig all -quick     # minimal smoke-test scale
//
// See "Reproducing the paper's figures" in README.md for what each figure
// shows and how its shape compares with the paper.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/experiments"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figure id (fig05..fig16, ablation, datasets) or 'all'")
		full    = flag.Bool("full", false, "run the paper-scale sweeps (hours)")
		quick   = flag.Bool("quick", false, "run the minimal smoke-test sweeps")
		seed    = flag.Int64("seed", 1, "data generation seed")
		workers = flag.Int("workers", 0, "worker goroutines per discovery run (0 = one per CPU, 1 = sequential as in the paper's testbed)")
		out     = flag.String("o", "", "append the tables to this file instead of stdout")
	)
	flag.Parse()

	cfg := experiments.Config{Full: *full, Quick: *quick, Seed: *seed, Workers: *workers}
	if err := run(*fig, cfg, *out); err != nil {
		fmt.Fprintln(os.Stderr, "cfdbench:", err)
		os.Exit(1)
	}
}

// run regenerates the named figures into the file at out, or stdout if out is
// empty. Every id is checked before the first figure runs: a sweep can take
// hours.
func run(fig string, cfg experiments.Config, out string) (err error) {
	known := experiments.IDs()
	ids := known
	if fig != "all" {
		ids = strings.Split(fig, ",")
		for i, id := range ids {
			ids[i] = strings.TrimSpace(id)
			if !slices.Contains(known, ids[i]) {
				return fmt.Errorf("unknown figure %q (available: %s)", ids[i], strings.Join(known, ", "))
			}
		}
	}

	sink := os.Stdout
	if out != "" {
		f, err := os.OpenFile(out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		sink = f
	}

	for _, id := range ids {
		start := time.Now()
		figure, err := experiments.Run(id, cfg)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(sink, "%s\n(regenerated in %s)\n\n", figure.Table(), time.Since(start).Round(time.Millisecond)); err != nil {
			return err
		}
	}
	return nil
}
