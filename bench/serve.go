package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"repro/discovery"
	"repro/rules"
	"repro/violation"
)

// mineServedRules mines the rule set cfdserve derives from its -sample at
// start-up, with the same algorithm and parameters, so the harness knows the
// set A it must find served and PUT back.
func mineServedRules(in *inputs) (*rules.Set, error) {
	eng := discovery.NewEngine(discovery.AlgFastCFD, in.sample,
		discovery.WithSupport(serveSupport), discovery.WithMaxLHS(serveMaxLHS))
	return eng.Run(context.Background())
}

// serveRun is the state of one end-to-end serve run.
type serveRun struct {
	res   *result
	srv   *server
	cl    *client
	epoch uint64 // the server's epoch, tracked across commits for ?since= polls

	cpuBase float64 // CPU the current incarnation had used when it entered the window
	peakMB  float64 // highest resident set seen so far in the current round
	scrape  []promSample
	busy    map[string]float64 // /metrics deltas summed over incarnations

	fullBytes int // size of the last full violation report
}

// busyFamilies are the /metrics series whose growth over the measured window
// is reported: where the server itself says its time went.
var busyFamilies = []struct{ key, name string }{
	{"cfdserve.http_busy_s", "cfd_http_request_duration_seconds_sum"},
	{"cfdserve.commit_busy_s", "cfd_engine_commit_duration_seconds_sum"},
	{"cfdserve.wal_append_busy_s", "cfd_wal_append_duration_seconds_sum"},
	{"cfdserve.wal_fsync_busy_s", "cfd_wal_fsync_duration_seconds_sum"},
	{"cfdserve.snapshot_busy_s", "cfd_engine_snapshot_duration_seconds_sum"},
	{"cfdserve.compactions", "cfd_store_compactions_total"},
	{"cfdserve.compaction_busy_s", "cfd_store_compaction_duration_seconds_sum"},
}

func (sr *serveRun) scrapeMetrics() ([]promSample, error) {
	code, body, err := sr.cl.do("GET", "/metrics", nil, "")
	if err != nil || code != 200 {
		return nil, fmt.Errorf("GET /metrics: status %d: %v", code, err)
	}
	return parseProm(string(body)), nil
}

// foldMetrics adds what the current incarnation's counters gained since the
// last scrape to the run's totals.
func (sr *serveRun) foldMetrics() error {
	after, err := sr.scrapeMetrics()
	if err != nil {
		return err
	}
	for _, f := range busyFamilies {
		sr.busy[f.key] += promDelta(sr.scrape, after, f.name)
	}
	sr.scrape = after
	return nil
}

// runServe is the end-to-end run of a serving workload: a real cfdserve
// process, durable and fsyncing, driven over loopback HTTP by one client on
// one keep-alive connection through the workload's fixed script.
func runServe(e *env, s spec, seed int64, seconds float64) (*result, error) {
	res := newResult(s.name)
	stateDir := filepath.Join(e.workDir, "state")
	srv, err := newServer(e, stateDir)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	cl := srv.client

	// Set-up: generate, write the CSVs, boot a fresh durable server (it mines
	// the sample, bulk loads the data and compacts the first snapshot) and
	// touch every read path once.
	var in *inputs
	for i := 0; i < setupReps; i++ {
		srv.kill()
		if err := os.RemoveAll(stateDir); err != nil {
			return nil, err
		}
		start := time.Now()
		if in, err = generate(s, seed); err != nil {
			return nil, err
		}
		if err := in.write(e.workDir, false, true); err != nil {
			return nil, err
		}
		if _, err := srv.start(firstBoot(in)...); err != nil {
			return nil, err
		}
		for _, path := range []string{"/v1/violations", "/v1/rules", "/v1/tuples?limit=1000", "/v1/tuples/0/violations", "/v1/suspects?limit=100"} {
			if code, _, err := cl.do("GET", path, nil, ""); err != nil || code != 200 {
				return nil, fmt.Errorf("warm-up GET %s: status %d: %v", path, code, err)
			}
		}
		res.setupS = append(res.setupS, time.Since(start).Seconds())
	}
	rulesA, err := mineServedRules(in)
	if err != nil {
		return nil, err
	}
	res.fact("rules.served", strconv.Itoa(rulesA.Len()))
	res.fact("fingerprint.served", rulesA.Fingerprint())
	// The PUT body carries no provenance: its header line would otherwise
	// hold the mining run's elapsed time and differ from run to run.
	script := in.script(s.rounds(seconds), rules.Of(rulesA.CFDs()...).Text())
	// Rounds differ only in the ids they touch, so the digest covers the
	// first: it then does not depend on -seconds.
	if res.hash, err = hashInputs([]string{in.sampleCSV, in.dataCSV}, script[:1]); err != nil {
		return nil, err
	}

	sr := &serveRun{res: res, srv: srv, cl: cl, busy: map[string]float64{}}
	if sr.scrape, err = sr.scrapeMetrics(); err != nil {
		return nil, err
	}
	if sr.cpuBase, err = srv.cpuSoFar(); err != nil {
		return nil, err
	}

	var applied [][]violation.Op // what the oracle replays, in commit order
	for r, steps := range script {
		if res.overBudget(r, len(script), seconds) {
			break
		}
		var round time.Duration
		srv.resetPeakRSS()
		sr.peakMB = 0
		for _, st := range steps {
			d, err := sr.exec(st)
			if err != nil {
				// A transport error or a dead server: nothing after it can be
				// trusted, so the run ends here as a failure.
				res.fail("round %d, %s %s: %v", r+1, st.Method, st.Path, err)
				return res, nil
			}
			round += d
			if st.Ops != nil {
				applied = append(applied, st.Ops)
			}
		}
		if err := sr.notePeak(); err != nil {
			return nil, err
		}
		res.roundS = append(res.roundS, round.Seconds())
		res.rssMB = append(res.rssMB, sr.peakMB)
	}

	if err := sr.foldMetrics(); err != nil {
		return nil, err
	}
	cpu, err := srv.cpuSoFar()
	if err != nil {
		return nil, err
	}
	res.cpuS = (res.cpuS + cpu - sr.cpuBase) / float64(len(res.roundS))
	for _, f := range busyFamilies {
		res.note("%-28s %.4f", f.key, sr.busy[f.key])
	}
	if sr.fullBytes > 0 {
		res.note("%-28s %d", "cfdserve.full_read_bytes", sr.fullBytes)
	}

	checkAgainstOracle(res, cl, in, rulesA, applied)
	e.checkExpected(res, seed)
	return res, nil
}

// notePeak folds the live incarnation's resident-set high-water mark into
// the round's peak.
func (sr *serveRun) notePeak() error {
	mb, err := sr.srv.peakRSSMB()
	sr.peakMB = max(sr.peakMB, mb)
	return err
}

// exec performs one step and returns the time it contributes to the round:
// the request's latency, the SIGKILL-to-healthy time of a restart, or
// nothing for an untimed step. A non-2xx reply or a wrong answer is recorded
// as a failed operation; only an unusable connection is returned as an error.
func (sr *serveRun) exec(st step) (time.Duration, error) {
	switch st.Kind {
	case "epoch":
		h, err := sr.cl.health()
		if err != nil {
			return 0, err
		}
		sr.epoch = h.Epoch
		return 0, nil
	case "restart":
		return sr.restart()
	}
	path := st.Path
	if st.Since {
		path += strconv.FormatUint(sr.epoch-1, 10)
	}
	ctype := ""
	if st.Body != nil {
		ctype = "application/json"
		if st.Kind == "swap" {
			ctype = "text/plain"
		}
	}
	sr.res.attempted++
	d, code, body, err := sr.cl.timed(st.Method, path, st.Body, ctype)
	if err != nil {
		return 0, err
	}
	if code < 200 || code > 299 {
		sr.res.fail("%s %s: status %d: %s", st.Method, path, code, bytes.TrimSpace(body))
		return d, nil
	}
	sr.res.sample(st.Kind, d)
	if st.Ops != nil || st.Kind == "swap" {
		sr.epoch++ // one commit, one epoch
	}
	sr.checkReply(st, body)
	return d, nil
}

// checkReply verifies what a single reply promises, outside the clock.
func (sr *serveRun) checkReply(st step, body []byte) {
	var doc struct {
		IDs     []int  `json:"ids"`
		Epoch   uint64 `json:"epoch"`
		Outcome string `json:"outcome"`
		Error   string `json:"error"`
		Swapped bool   `json:"swapped"`
	}
	switch {
	case st.IDs != nil, st.Since, st.Kind == "remine", st.Kind == "swap":
		if err := json.Unmarshal(body, &doc); err != nil {
			sr.res.fail("%s %s: reply is not JSON: %v", st.Method, st.Path, err)
			return
		}
	default:
		if st.Kind == "full_read" {
			sr.fullBytes = len(body)
		}
		return
	}
	switch {
	case st.IDs != nil && !slices.Equal(doc.IDs, st.IDs):
		sr.res.fail("%s %s: assigned ids %v..., want %v...", st.Method, st.Path, head(doc.IDs), head(st.IDs))
	case st.Since && doc.Epoch != sr.epoch:
		sr.res.fail("delta poll answered at epoch %d, want %d", doc.Epoch, sr.epoch)
	case st.Kind == "remine" && doc.Outcome != "swapped":
		// Mining the noisy live rows must differ from the clean-sample set A,
		// or the PUT that follows measures a no-op.
		sr.res.fail("remine outcome %q (%s), want swapped", doc.Outcome, doc.Error)
	case st.Kind == "remine":
		sr.epoch++ // the swap it performed is a commit too
	case st.Kind == "swap" && !doc.Swapped:
		sr.res.fail("PUT /v1/rules did not swap")
	}
}

func head(ids []int) []int { return ids[:min(len(ids), 3)] }

// durableReads are compared byte for byte across a SIGKILL. The tuple page
// starts inside the bulk-loaded rows and runs into the rows the round just
// inserted, so acknowledged writes that did not survive would show.
func (sr *serveRun) durableReads() ([][]byte, healthDoc, error) {
	h, err := sr.cl.health()
	if err != nil {
		return nil, h, err
	}
	tail := max(0, h.NextID-1000)
	var out [][]byte
	for _, path := range []string{"/v1/violations", "/v1/rules", "/v1/tuples?limit=1000&cursor=" + strconv.Itoa(tail)} {
		code, body, err := sr.cl.do("GET", path, nil, "")
		if err != nil {
			return nil, h, err
		}
		if code != 200 {
			return nil, h, fmt.Errorf("GET %s: status %d", path, code)
		}
		out = append(out, body)
	}
	return out, h, nil
}

// restart kills the server with SIGKILL, starts it again on the same state
// directory and returns the time from the kill to the first healthy reply.
// The reads around it are untimed.
func (sr *serveRun) restart() (time.Duration, error) {
	// Let a background compaction finish first, so every run recovers from a
	// snapshot plus a WAL tail rather than sometimes from a half-written
	// temp file; what is timed is recovery, not luck.
	for {
		h, err := sr.cl.health()
		if err != nil {
			return 0, err
		}
		if !h.Compacting {
			break
		}
		time.Sleep(time.Millisecond)
	}
	before, hb, err := sr.durableReads()
	if err != nil {
		return 0, err
	}
	if err := sr.foldMetrics(); err != nil {
		return 0, err
	}
	if err := sr.notePeak(); err != nil {
		return 0, err
	}

	sr.res.attempted++
	start := time.Now()
	u := sr.srv.kill()
	if _, err := sr.srv.start(); err != nil {
		return 0, err
	}
	d := time.Since(start)
	sr.res.sample("restart", d)
	sr.res.cpuS += u.cpuS - sr.cpuBase
	sr.cpuBase = 0

	after, ha, err := sr.durableReads()
	if err != nil {
		return 0, err
	}
	hb.Compacting, ha.Compacting = false, false
	if hb != ha {
		sr.res.fail("health after SIGKILL %+v, before %+v", ha, hb)
	}
	for i := range before {
		if !bytes.Equal(before[i], after[i]) {
			sr.res.fail("read %d after SIGKILL differs from the read before it (%d vs %d bytes)", i, len(after[i]), len(before[i]))
		}
	}
	if sr.scrape, err = sr.scrapeMetrics(); err != nil {
		return 0, err
	}
	return d, nil
}

// checkAgainstOracle replays every committed op on an in-process
// violation.Engine and compares the server's final violation report, tuple
// export and rule version with it.
func checkAgainstOracle(res *result, cl *client, in *inputs, rulesA *rules.Set, applied [][]violation.Op) {
	oracle, err := violation.New(in.data.Attributes(), rulesA, violation.Options{})
	if err == nil {
		err = oracle.BulkLoad(in.data)
	}
	for i := 0; err == nil && i < len(applied); i++ {
		_, err = oracle.ApplyBatch(applied[i])
	}
	if err != nil {
		res.fail("oracle replay: %v", err)
		return
	}
	get := func(path string, into any) bool {
		code, body, err := cl.do("GET", path, nil, "")
		if err == nil && code != 200 {
			err = fmt.Errorf("status %d", code)
		}
		if err == nil {
			err = json.Unmarshal(body, into)
		}
		if err != nil {
			res.fail("GET %s: %v", path, err)
		}
		return err == nil
	}

	var rep struct {
		Violations []struct {
			Rule   string `json:"rule"`
			Tuples []int  `json:"tuples"`
		} `json:"violations"`
		Dirty []int `json:"dirty"`
	}
	if get("/v1/violations", &rep) {
		want := oracle.Report()
		same := len(rep.Violations) == len(want.Violations) && slices.Equal(rep.Dirty, want.DirtyTuples)
		for i := 0; same && i < len(want.Violations); i++ {
			same = rep.Violations[i].Rule == want.Violations[i].Rule.String() &&
				slices.Equal(rep.Violations[i].Tuples, want.Violations[i].Tuples)
		}
		if !same {
			res.fail("/v1/violations differs from the oracle: %d violated rules, %d dirty; want %d, %d",
				len(rep.Violations), len(rep.Dirty), len(want.Violations), len(want.DirtyTuples))
		}
		res.fact("dirty", strconv.Itoa(len(want.DirtyTuples)))
	}

	wantTuples, _, _ := oracle.Tuples(0, 0)
	at, cursor := 0, "0"
	for cursor != "" {
		var page struct {
			Tuples []struct {
				ID     int      `json:"id"`
				Values []string `json:"values"`
			} `json:"tuples"`
			Next string `json:"next_cursor"`
		}
		if !get("/v1/tuples?limit=10000&cursor="+cursor, &page) {
			return
		}
		for _, t := range page.Tuples {
			if at >= len(wantTuples) || t.ID != wantTuples[at].ID || !slices.Equal(t.Values, wantTuples[at].Values) {
				res.fail("/v1/tuples differs from the oracle at position %d (id %d)", at, t.ID)
				return
			}
			at++
		}
		cursor = page.Next
	}
	if at != len(wantTuples) {
		res.fail("/v1/tuples lists %d tuples, the oracle holds %d", at, len(wantTuples))
	}

	var rs struct {
		Version string `json:"version"`
	}
	if get("/v1/rules", &rs) && rs.Version != oracle.RulesVersion() {
		res.fail("/v1/rules serves version %s, want %s", rs.Version, oracle.RulesVersion())
	}
}
