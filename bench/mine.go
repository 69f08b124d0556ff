package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/cfd"
	"repro/rules"
)

// A run sets up from scratch setupReps times and reports the median as
// setup_s, so one slow file write or process start does not decide it. A
// set-up that takes only tens of milliseconds is repeated further, up to
// maxSetupReps times within cheapSetupBudget: a short interval needs more
// samples to give a steady median.
const (
	setupReps        = 3
	maxSetupReps     = 9
	cheapSetupBudget = time.Second
)

// runMine is the end-to-end run of a mining workload: rounds passes of the
// cfddiscover CLI over the generated CSV, one invocation per algorithm, each
// timed from exec to exit (CSV load to rule file written).
func runMine(e *env, s spec, seed int64, seconds float64) (*result, error) {
	res := newResult(s.name)
	bin := filepath.Join(e.binDir, "cfddiscover")
	log := filepath.Join(e.workDir, "cfddiscover.log")
	discover := func(in *inputs, alg string) (time.Duration, usage, error) {
		return runCLI(log, bin, "-input", in.mineCSV, "-algorithm", alg,
			"-support", strconv.Itoa(s.support), "-workers", "2", "-o", filepath.Join(e.workDir, alg+".rules"))
	}

	// Set-up: generate, write the CSV, and one cfdminer pass so the binary
	// and the file are in the page cache before the first timed run.
	var in *inputs
	var spent time.Duration
	for i := 0; i < setupReps || (i < maxSetupReps && spent < cheapSetupBudget); i++ {
		start := time.Now()
		var err error
		if in, err = generate(s, seed); err != nil {
			return nil, err
		}
		if err := in.write(e.workDir, true, false); err != nil {
			return nil, err
		}
		if _, _, err := discover(in, "cfdminer"); err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(start).Seconds())
		spent += time.Since(start)
	}
	var err error
	if res.hash, err = hashInputs([]string{in.mineCSV}, nil); err != nil {
		return nil, err
	}

	rounds := s.rounds(seconds)
	bodies := map[string][]byte{} // first round's rule files, header stripped
	for r := 0; r < rounds; r++ {
		if res.overBudget(r, rounds, seconds) {
			break
		}
		var round time.Duration
		var peakMB float64
		for _, alg := range miners {
			res.attempted++
			wall, u, err := discover(in, alg)
			if err != nil {
				res.fail("%v", err)
				continue
			}
			res.sample("discover_"+alg, wall)
			round += wall
			res.cpuS += u.cpuS
			peakMB = max(peakMB, u.rssMB)
			body, err := ruleFileBody(filepath.Join(e.workDir, alg+".rules"))
			if err != nil {
				res.fail("%v", err)
				continue
			}
			if first, ok := bodies[alg]; !ok {
				bodies[alg] = body
			} else if !bytes.Equal(first, body) {
				res.fail("%s: rule file of round %d differs from round 1", alg, r+1)
			}
		}
		res.roundS = append(res.roundS, round.Seconds())
		res.rssMB = append(res.rssMB, peakMB)
	}
	res.cpuS /= float64(len(res.roundS))

	checkCovers(res, bodies)
	e.checkExpected(res, seed)
	return res, nil
}

// ruleFileBody reads a rule file and drops its '#' header line, which
// carries the run's elapsed time and so differs from run to run.
func ruleFileBody(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if i := bytes.IndexByte(data, '\n'); i >= 0 && len(data) > 0 && data[0] == '#' {
		data = data[i+1:]
	}
	return data, nil
}

// checkCovers verifies the paper's agreement between the three miners on one
// input: CTANE and FastCFD produce the same minimal cover, and its constant
// CFDs are exactly what CFDMiner finds. It also records rule counts and
// fingerprints as facts for the expected-value check.
func checkCovers(res *result, bodies map[string][]byte) {
	sets := map[string]*rules.Set{}
	for alg, body := range bodies {
		set, err := rules.Parse(string(body))
		if err != nil {
			res.fail("%s: rule file does not parse: %v", alg, err)
			return
		}
		sets[alg] = set
		res.fact("rules."+alg, strconv.Itoa(set.Len()))
		res.fact("fingerprint."+alg, set.Fingerprint())
	}
	ctane, fast, miner := sets["ctane"], sets["fastcfd"], sets["cfdminer"]
	if ctane == nil || fast == nil || miner == nil {
		res.fail("missing a rule file: have %d of 3 algorithms", len(sets))
		return
	}
	if ctane.Fingerprint() != fast.Fingerprint() {
		res.fail("ctane cover %s (%d rules) != fastcfd cover %s (%d rules)",
			ctane.Fingerprint(), ctane.Len(), fast.Fingerprint(), fast.Len())
	}
	var constant []cfd.CFD
	for _, c := range ctane.CFDs() {
		if c.IsConstant() {
			constant = append(constant, c)
		}
	}
	if got := rules.Of(constant...).Fingerprint(); got != miner.Fingerprint() {
		res.fail("constant CFDs of the ctane cover (%d) != cfdminer output (%d)", len(constant), miner.Len())
	}
}

// result collects what one end-to-end run of one workload measured.
type result struct {
	workload  string
	hash      string // digest of the generated inputs and op script
	attempted int    // timed operations started
	failed    int    // operations that failed, plus failed checks
	problems  []string
	notes     []string

	setupS []float64 // one per set-up repetition
	roundS []float64 // sum of the timed operations of each round
	cpuS   float64   // CPU seconds of the program under test, per round
	rssMB  []float64 // peak resident set of the program's processes within each round

	kinds     map[string][]float64 // per request / CLI kind, seconds
	kindOrder []string
	facts     map[string]string // exact values compared with expected.json
}

func newResult(workload string) *result {
	return &result{workload: workload, kinds: map[string][]float64{}, facts: map[string]string{}}
}

// overBudget reports, before round `done`+1 of `planned`, whether the rounds
// so far already took 1.5 x -seconds: on a box much slower than the one the
// round counts were frozen on, a run stops early (never before three rounds)
// rather than overrun the driver's time limit, and says so.
func (r *result) overBudget(done, planned int, seconds float64) bool {
	if done < 3 || sum(r.roundS) <= 1.5*seconds {
		return false
	}
	r.note("stopped after %d of %d rounds: the measured part passed 1.5 x -seconds", done, planned)
	return true
}

func (r *result) sample(kind string, d time.Duration) {
	if _, ok := r.kinds[kind]; !ok {
		r.kindOrder = append(r.kindOrder, kind)
	}
	r.kinds[kind] = append(r.kinds[kind], d.Seconds())
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) fact(key, value string) { r.facts[key] = value }

func (r *result) correct() bool { return r.failed == 0 }
