// Command bench is the repository's benchmark: it drives the two programs
// users run — the cfddiscover CLI on CSV files and a real cfdserve process
// over loopback HTTP — through four deterministic fixed-work workloads,
// checks every output, and prints the end-to-end metrics named in
// BENCHMARK.json. With -trace 1 it instead replays the workload's inputs
// in-process, timing the calls into each package's public functions, and
// prints the per-layer metrics. See bench/README.md.
//
//	bash bench/run.sh -workload serve-ingest          # what BENCHMARK.json runs
//	go run ./bench                                    # all four workloads
//	go run ./bench -workload mine-wide -trace 1       # per-layer replay
//	go run ./bench -check-noise 5                     # are the bounds honest?
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

//go:embed expected.json
var expectedJSON []byte

// benchmarkFile is BENCHMARK.json, the contract this program prints to.
type benchmarkFile struct {
	RunSeconds int         `json:"run_seconds"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// env is what every run shares: where the repository and the built programs
// are, where a run may write, and the values the outputs are checked against.
type env struct {
	binDir  string
	outDir  string
	workDir string // this run's scratch directory under outDir
	scale   string
	bench   benchmarkFile
	// expected[scale][workload][fact] pins exact outputs.
	expected map[string]map[string]map[string]string
}

const defaultSeed = 1

func newEnv(outDir, scale string) (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	if outDir == "" {
		outDir = filepath.Join(root, ".bench_build", "run")
	}
	e := &env{outDir: outDir, binDir: filepath.Join(outDir, "bin"), scale: scale}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &e.bench); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := json.Unmarshal(expectedJSON, &e.expected); err != nil {
		return nil, fmt.Errorf("bench/expected.json: %w", err)
	}
	return e, buildBinaries(root, e.binDir)
}

// seedDependent are the facts that change with -seed; every other fact (rule
// counts, fingerprints) follows from the Tax instance alone and is checked
// for every seed.
var seedDependent = map[string]bool{"inputs": true, "dirty": true}

// checkExpected compares the run's exact facts with expected.json.
func (e *env) checkExpected(res *result, seed int64) {
	res.fact("inputs", res.hash)
	want, ok := e.expected[e.scale][res.workload]
	if !ok {
		res.fail("bench/expected.json has no entry for %s/%s", e.scale, res.workload)
		return
	}
	for key, w := range want {
		if seed != defaultSeed && seedDependent[key] {
			continue
		}
		if got := res.facts[key]; got != w {
			res.fail("%s = %q, bench/expected.json says %q", key, got, w)
		}
	}
}

// run executes one workload in a fresh scratch directory, end to end or as
// the traced replay, and returns its metrics in BENCHMARK.json's names.
func (e *env) run(s spec, seed int64, seconds float64, trace bool) (*result, map[string]metric, error) {
	e.workDir = filepath.Join(e.outDir, s.name)
	if err := os.RemoveAll(e.workDir); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		return nil, nil, err
	}
	var res *result
	var metrics map[string]metric
	var err error
	switch {
	case trace:
		res, metrics, err = runTraced(e, s, seed)
	case s.mine:
		res, err = runMine(e, s, seed, seconds)
	default:
		res, err = runServe(e, s, seed, seconds)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w (scratch kept in %s)", s.name, err, e.workDir)
	}
	if !trace {
		metrics = res.endToEnd()
	}
	if res.correct() {
		// Keep the scratch directory of a failed run: the programs' logs are
		// in it.
		if err := os.RemoveAll(e.workDir); err != nil {
			return nil, nil, err
		}
	}
	return res, metrics, nil
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd returns the metrics a user of the programs would see. Every
// workload reports the same four; what each stresses differs.
func (r *result) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":     {median(r.setupS), "s"},
		"round_s":     {median(r.roundS), "s"},
		"cpu_s":       {r.cpuS, "s"},
		"rss_peak_mb": {median(r.rssMB), "MB"},
	}
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload   = flag.String("workload", "all", "workload to run: mine-tall, mine-wide, serve-ingest, serve-mixed or all")
		seed       = flag.Int64("seed", defaultSeed, "seed of row order, noise, payloads and read targets; the input digest is pinned for the default seed only")
		seconds    = flag.Float64("seconds", 0, "measured part of one run, converted to a fixed round count per workload (0 = run_seconds of BENCHMARK.json)")
		trace      = flag.Int("trace", 0, "1 = traced in-process replay printing the per-layer metrics; 0 = end-to-end run")
		scale      = flag.String("scale", "full", "full, or tiny for a seconds-long smoke run whose numbers mean nothing")
		outDir     = flag.String("out", "", "directory for built programs, scratch files and trace files (default .bench_build/run in the checkout)")
		checkNoise = flag.Int("check-noise", 0, "run two sets of N end-to-end runs per workload and fail if their medians differ by more than half a metric's bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	all, err := specs(*scale)
	if err != nil {
		fatal(err)
	}
	var chosen []spec
	for _, s := range all {
		if *workload == "all" || *workload == s.name {
			chosen = append(chosen, s)
		}
	}
	if len(chosen) == 0 {
		fatal(fmt.Errorf("unknown -workload %q", *workload))
	}
	e, err := newEnv(*outDir, *scale)
	if err != nil {
		fatal(err)
	}
	if *seconds == 0 {
		*seconds = float64(e.bench.RunSeconds)
	}
	if *checkNoise > 0 {
		if !e.checkNoise(chosen, *seed, *seconds, *checkNoise) {
			os.Exit(1)
		}
		return
	}

	ok := true
	for _, s := range chosen {
		res, metrics, err := e.run(s, *seed, *seconds, *trace == 1)
		if err != nil {
			fatal(err)
		}
		res.print(os.Stdout, *seed, metrics, *trace == 1)
		line, err := json.Marshal(resultLine{res.correct(), max(res.attempted, 1), res.failed, metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		ok = ok && res.correct()
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// print writes the human-readable report that precedes the result line.
func (r *result) print(w *os.File, seed int64, metrics map[string]metric, traced bool) {
	mode := "end to end"
	if traced {
		mode = "traced replay"
	}
	fmt.Fprintf(w, "== %s (%s)  seed %d  inputs %s\n", r.workload, mode, seed, r.hash)
	if !traced {
		fmt.Fprintf(w, "  %-22s %10.4f s    median of %d set-ups\n", "setup_s", median(r.setupS), len(r.setupS))
		fmt.Fprintf(w, "  %-22s %10.4f s    median of the rounds %.3f\n", "round_s", median(r.roundS), r.roundS)
		fmt.Fprintf(w, "  %-22s %10.4f s    CPU of the program under test per round\n", "cpu_s", r.cpuS)
		fmt.Fprintf(w, "  %-22s %10.1f MB   median of the rounds' peaks %.0f\n", "rss_peak_mb", median(r.rssMB), r.rssMB)
		fmt.Fprintf(w, "  %-22s %12s %7s   %s\n", "per operation kind", "median", "n", "tail")
		for _, kind := range r.kindOrder {
			xs := r.kinds[kind]
			tailText := "-"
			if pct, v, ok := tail(xs); ok {
				tailText = fmt.Sprintf("p%g %s", pct, human(v))
			}
			fmt.Fprintf(w, "  %-22s %12s %7d   %s\n", kind, human(median(xs)), len(xs), tailText)
		}
	} else {
		for _, name := range slices.Sorted(maps.Keys(metrics)) {
			fmt.Fprintf(w, "  %-40s %14.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, key := range slices.Sorted(maps.Keys(r.facts)) {
		fmt.Fprintf(w, "  exact: %-22s %s\n", key, r.facts[key])
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", r.attempted, r.failed)
	if r.correct() {
		fmt.Fprintf(w, "  checks: ok\n")
	} else {
		fmt.Fprintf(w, "  checks: FAILED\n    %s\n", strings.Join(r.problems, "\n    "))
	}
}

// human renders a duration in seconds with a unit that keeps three or four
// significant digits.
func human(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.3f s", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.3f ms", s*1e3)
	default:
		return fmt.Sprintf("%.1f us", s*1e6)
	}
}
