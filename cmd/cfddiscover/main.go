// Command cfddiscover discovers conditional functional dependencies in a CSV
// file using any of the paper's algorithms, through the streaming
// discovery.Engine.
//
// Usage:
//
//	cfddiscover -input data.csv -algorithm fastcfd -support 10
//	cfddiscover -demo -algorithm ctane -support 2
//	cfddiscover -input data.csv -limit 25 -progress   # first 25 rules only
//	cfddiscover -input data.csv -json -o rules.json   # rules.Set JSON
//	cfddiscover -input data.csv -timing               # where the run's time went, on stderr
//
// The input CSV must have a header row naming the attributes. With -demo the
// built-in cust relation of Fig. 1 of the paper is used instead of a file.
// With -limit the engine stops as soon as that many rules have been streamed,
// cancelling the remaining mining work — the cheap way to peek at a data set.
//
// Output is the rule-file text format by default (consumed by cfdclean -rules
// and cfdserve -rules), the pattern-tableau grouping with -tableau, or the
// rules.Set JSON document with -json (the same shape cfdserve's GET /rules
// serves; also accepted by both -rules flags).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"time"

	"repro/cfd"
	"repro/dataset"
	"repro/discovery"
)

func main() {
	var algorithms []string
	for _, alg := range discovery.Algorithms() {
		algorithms = append(algorithms, string(alg))
	}
	var (
		input     = flag.String("input", "", "input CSV file with a header row")
		demo      = flag.Bool("demo", false, "use the built-in cust relation of Fig. 1 instead of -input")
		algorithm = flag.String("algorithm", "fastcfd", "algorithm: "+strings.Join(algorithms, ", "))
		support   = flag.Int("support", 2, "support threshold k (k-frequent CFDs only)")
		maxLHS    = flag.Int("maxlhs", 0, "bound on the number of LHS attributes (0 = unbounded)")
		varOnly   = flag.Bool("variable-only", false, "report variable CFDs only")
		workers   = flag.Int("workers", 0, "worker goroutines for the discovery run (0 = one per CPU, 1 = sequential)")
		timeout   = flag.Duration("timeout", 0, "abort the discovery run after this duration (0 = no limit)")
		limit     = flag.Int("limit", 0, "stop after this many rules, cancelling the remaining mining work (0 = full cover)")
		progress  = flag.Bool("progress", false, "report streamed rule counts on stderr while mining")
		tableau   = flag.Bool("tableau", false, "group the discovered CFDs into pattern tableaux per embedded FD")
		jsonOut   = flag.Bool("json", false, "write the rule set as rules.Set JSON instead of the text rule file")
		output    = flag.String("o", "", "write the discovered CFDs to this file instead of stdout")
		timing    = flag.Bool("timing", false, "report the time spent loading, mining, encoding and writing on stderr after the run")
	)
	flag.Parse()

	// The phases -timing reports: each stamp ends one.
	begin := time.Now()
	last := begin
	var phases []string
	stamp := func(phase string) {
		if !*timing {
			return
		}
		now := time.Now()
		phases = append(phases, fmt.Sprintf("%s=%s", phase, now.Sub(last)))
		last = now
	}

	// Checked before the input is read: loading can take arbitrarily long.
	if !slices.Contains(algorithms, *algorithm) {
		fatal(fmt.Errorf("unknown algorithm %q (available: %s)", *algorithm, strings.Join(algorithms, ", ")))
	}
	rel, err := loadRelation(*input, *demo)
	if err != nil {
		fatal(err)
	}
	stamp("load")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	engOpts := []discovery.Option{
		discovery.WithSupport(*support),
		discovery.WithMaxLHS(*maxLHS),
		discovery.WithWorkers(*workers),
		discovery.WithVariableOnly(*varOnly),
		discovery.WithLimit(*limit),
	}
	if *progress {
		engOpts = append(engOpts, discovery.WithProgress(func(found int) {
			fmt.Fprintf(os.Stderr, "\rcfddiscover: %d rules streamed", found)
		}))
	}
	eng := discovery.NewEngine(discovery.Algorithm(*algorithm), rel, engOpts...)
	set, err := eng.Run(ctx)
	if *progress {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		fatal(err)
	}
	stamp("mine")

	var body strings.Builder
	switch {
	case *jsonOut:
		data, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			fatal(err)
		}
		body.Write(data)
		body.WriteByte('\n')
	case *tableau:
		body.WriteString(set.Header())
		body.WriteByte('\n')
		for _, t := range set.Tableaux() {
			body.WriteString(t.String())
			body.WriteByte('\n')
		}
	default:
		// The rule-file format shared with cfdclean -rules and cfdserve -rules.
		body.WriteString(set.Text())
	}
	stamp("encode")

	if *output != "" {
		if err := os.WriteFile(*output, []byte(body.String()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d CFDs to %s\n", set.Len(), *output)
	} else {
		fmt.Print(body.String())
	}
	stamp("write")
	if *timing {
		fmt.Fprintf(os.Stderr, "cfddiscover: timing %s total=%s\n", strings.Join(phases, " "), time.Since(begin))
	}
}

func loadRelation(input string, demo bool) (*cfd.Relation, error) {
	switch {
	case demo:
		return dataset.Cust(), nil
	case input != "":
		return dataset.LoadCSVFile(input)
	default:
		return nil, fmt.Errorf("either -input or -demo is required")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cfddiscover:", err)
	os.Exit(1)
}
