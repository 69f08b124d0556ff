package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/obs"
	"repro/violation"
)

// testLog builds a server logger over w the way parseFlags does for run.
func testLog(w io.Writer, format string) *slog.Logger {
	log, err := obs.NewLogger(w, "", format)
	if err != nil {
		panic(err)
	}
	return log
}

// removedFlags were user-settable before the shell was cut to the flags with
// a measured user; each is now a constant and, on the command line, unknown.
var removedFlags = []string{
	"-compact-every", "-remine-limit", "-shard-timeout", "-init-wait", "-maintain-drift",
	"-maintain-confidence", "-maintain-min-support", "-maintain-epochs", "-maintain-interval",
}

// TestRunRefusesFlags: a command line run cannot honour in full is refused
// before anything boots, by flag name, as a usage error (exit status 2) — an
// unknown flag, a flag the selected mode never reads, one that cannot take
// effect. The invocations bench makes parse.
func TestRunRefusesFlags(t *testing.T) {
	cases := []struct {
		args string
		want string // substring of the error; "" = accepted
	}{
		{"-coordinator", "-coordinator requires -shards"},
		{"-coordinator -shards ,", "-coordinator requires -shards"},
		{"-rules r.txt -fsync", "-fsync has no effect without -state"},
		{"-rules r.txt -log-level loud", `unknown log level "loud"`},
		{"-rules r.txt -log-format xml", `unknown log format "xml"`},
		{"-rules r.txt extra", `unexpected argument "extra"`},
		{"-workers many", "invalid value"},
		// bench's first boot and its restart.
		{"-sample s.csv -data d.csv -addr 127.0.0.1:0 -support 40 -maxlhs 2 -state dir -fsync", ""},
		{"-addr 127.0.0.1:0 -support 40 -maxlhs 2 -state dir -fsync", ""},
		{"-coordinator -shards http://a,http://b -partition-by CC -addr :0 -debug-addr :0 -log-format json -log-level debug", ""},
	}
	for _, name := range removedFlags {
		cases = append(cases, struct{ args, want string }{name + " 1", "flag provided but not defined: " + name})
	}
	for _, f := range flagTable { // every flag only one mode reads, under the other
		switch set := "-" + f.name + "=1"; f.mode {
		case node:
			cases = append(cases, struct{ args, want string }{"-coordinator -shards http://a " + set, "-" + f.name + " has no effect with -coordinator"})
		case coord:
			cases = append(cases, struct{ args, want string }{"-rules r.txt " + set, "-" + f.name + " has no effect without -coordinator"})
		}
	}
	for _, tc := range cases {
		_, err := parseFlags(strings.Fields(tc.args), io.Discard)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: refused: %v", tc.args, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.args, err, tc.want)
			continue
		}
		// Through run: the same error, nothing booted, reported once, status 2.
		var out bytes.Buffer
		err = run(context.Background(), strings.Fields(tc.args), &out)
		if !errors.As(err, new(usageError)) || out.Len() != 0 {
			t.Errorf("%s: run err = %v (output %q), want a silent usage error", tc.args, err, out.String())
		}
		if code := exitCode(err, &out); code != 2 || out.String() != "cfdserve: "+err.Error()+"\n" {
			t.Errorf("%s: exit %d, message %q", tc.args, code, out.String())
		}
	}
	if code := exitCode(errors.New("listen: address in use"), io.Discard); code != 1 {
		t.Errorf("a runtime error exits %d, want 1", code)
	}
	if code := exitCode(nil, io.Discard); code != 0 {
		t.Errorf("success exits %d, want 0", code)
	}
}

// TestFlagTableMatchesREADME pins the command line the way TestRouteParity
// pins the routes: -h prints exactly the flag table, and README.md's table
// lists the same flags, in the table's order, under the same modes.
func TestFlagTableMatchesREADME(t *testing.T) {
	var declared []string
	for _, f := range flagTable {
		declared = append(declared, fmt.Sprintf("-%s (%s)", f.name, f.mode))
	}

	var help bytes.Buffer
	if err := run(context.Background(), []string{"-h"}, &help); err != nil {
		t.Fatalf("-h: %v", err)
	}
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllStringSubmatch(help.String(), -1) {
		listed["-"+m[1]] = true
	}
	for _, f := range flagTable {
		if !listed["-"+f.name] {
			t.Errorf("-h does not list -%s:\n%s", f.name, help.String())
		}
	}
	if len(listed) != len(flagTable) || len(flagTable) != 17 {
		t.Errorf("-h lists %d flags, the table declares %d, want 17 and 17", len(listed), len(flagTable))
	}

	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(data), "\n## Operations guide (cfdserve)\n")
	section, _, _ = strings.Cut(section, "\n## ")
	var documented []string
	for _, m := range regexp.MustCompile("(?m)^\\| `(-[a-z-]+)` \\| (node|coordinator|both) \\|").FindAllStringSubmatch(section, -1) {
		documented = append(documented, fmt.Sprintf("%s (%s)", m[1], m[2]))
	}
	if doc, code := strings.Join(documented, "\n"), strings.Join(declared, "\n"); doc != code {
		t.Errorf("README.md's flag table and flagTable disagree\ndocumented:\n%s\ndeclared:\n%s", doc, code)
	}
	for _, name := range removedFlags {
		if strings.Contains(section, "`"+name) {
			t.Errorf("README.md still documents the removed flag %s", name)
		}
	}
}

// proc is one run of the program inside the test process.
type proc struct {
	addr, debugAddr string // base URLs, from the log
	stop            context.CancelFunc
	done            chan struct{} // closed when run has returned err
	err             error
	log             syncBuffer
}

// wait returns what run returned.
func (p *proc) wait(t *testing.T) error {
	t.Helper()
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		t.Fatalf("run did not return; log:\n%s", p.log.String())
	}
	return p.err
}

// loggedAddr returns, as a base URL, the addr attribute of the JSON log line
// saying msg, or "" while there is none.
func loggedAddr(log *syncBuffer, msg string) string {
	m := regexp.MustCompile(`"msg":"` + msg + `","addr":"([^"]+)"`).FindStringSubmatch(log.String())
	if m == nil {
		return ""
	}
	return "http://" + m[1]
}

// startRun calls run with args (plus a loopback -addr and JSON logs) on its
// own goroutine and returns once it has logged the addresses it listens on.
func startRun(t *testing.T, args ...string) *proc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	p := &proc{stop: cancel, done: make(chan struct{})}
	args = append([]string{"-addr", "127.0.0.1:0", "-log-format", "json"}, args...)
	go func() {
		defer close(p.done)
		p.err = run(ctx, args, &p.log)
	}()
	t.Cleanup(func() {
		cancel()
		p.wait(t)
	})
	wantDebug := strings.Contains(strings.Join(args, " "), "-debug-addr")
	if !waitFor(func() bool {
		p.addr, p.debugAddr = loggedAddr(&p.log, "listening"), loggedAddr(&p.log, "debug listener on")
		return p.addr != "" && (p.debugAddr != "" || !wantDebug)
	}) {
		cancel()
		t.Fatalf("run %v never listened: %v\n%s", args, p.wait(t), p.log.String())
	}
	return p
}

// TestRunNode drives the node mode through run, the way the process runs it:
// flags in, a durable server with a pprof listener up, one write, SIGTERM,
// and out again with nil — in-flight work drained, the WAL folded into a
// final snapshot, the store closed — so a restart from the directory alone
// serves the same bytes and replays nothing.
func TestRunNode(t *testing.T) {
	dir := t.TempDir()
	p := startRun(t, "-rules", "testdata/rules.txt", "-data", "testdata/cust.csv",
		"-state", dir, "-maintain", "-debug-addr", "127.0.0.1:0")

	health := do(t, "GET", p.addr+"/v1/health", nil, http.StatusOK)
	if _, on := health["maintain"].(map[string]any); !on || health["tuples"] != 8.0 || health["rules"] != 2.0 || health["state_dir"] != dir {
		t.Fatalf("health = %v", health)
	}
	ins := do(t, "POST", p.addr+"/v1/tuples", map[string]any{
		"rows": [][]string{{"01", "212", "9999999", "Ann", "5th Ave", "NYC", "01202"}},
	}, http.StatusOK)
	if got := ints(t, ins["ids"]); fmt.Sprint(got) != "[8]" {
		t.Fatalf("insert ids = %v, want [8]", got)
	}
	want := getRaw(t, p.addr+"/v1/violations")

	// The pprof surface answers on the debug listener only.
	if index := getRaw(t, p.debugAddr+"/debug/pprof/"); !bytes.Contains(index, []byte("profiles")) {
		t.Fatalf("pprof index on -debug-addr:\n%s", index)
	}
	clusterReq(t, "GET", p.addr+"/debug/pprof/", "", "", http.StatusNotFound)

	// The directory is held: a second process on it is refused at boot.
	err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-state", dir}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "already in use by a live process") {
		t.Fatalf("second run on a live -state directory: err = %v", err)
	}

	// run holds the signal handler while it serves, so the test process
	// survives its own SIGTERM.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p.wait(t); err != nil {
		t.Fatalf("run after SIGTERM = %v\n%s", err, p.log.String())
	}
	for _, url := range []string{p.addr + "/v1/health", p.debugAddr + "/debug/pprof/"} {
		if _, err := http.Get(url); err == nil {
			t.Fatalf("%s still answers after run returned", url)
		}
	}
	assertClosedAndCompacted(t, dir)

	p2 := startRun(t, "-state", dir)
	if got := getRaw(t, p2.addr+"/v1/violations"); !bytes.Equal(got, want) {
		t.Fatalf("restarted /v1/violations differs:\n%s\nvs\n%s", got, want)
	}
	p2.stop()
	if err := p2.wait(t); err != nil {
		t.Fatalf("restarted run = %v", err)
	}
}

// killedRunState names the environment variable under which the test binary,
// re-executed by TestRunSIGKILLWithoutFsync, is the node process itself: it
// calls run on the variable's state directory, without -fsync, and never
// returns to the test.
const killedRunState = "CFDSERVE_KILLED_RUN_STATE"

// TestRunSIGKILLWithoutFsync holds the README's -fsync row to its word: a
// durable node without -fsync — a separate process, re-executed from this
// test binary — acknowledges writes over HTTP and is SIGKILLed, so nothing of
// its shutdown runs. Restarted in process from the state directory alone,
// it serves byte-identical /v1/tuples and /v1/violations: an acknowledged
// write has reached the kernel, and outlives the process that wrote it.
func TestRunSIGKILLWithoutFsync(t *testing.T) {
	if dir := os.Getenv(killedRunState); dir != "" {
		err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-log-format", "json",
			"-rules", "testdata/rules.txt", "-data", "testdata/cust.csv", "-state", dir}, os.Stderr)
		os.Exit(exitCode(err, os.Stderr))
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestRunSIGKILLWithoutFsync$")
	cmd.Env = append(os.Environ(), killedRunState+"="+dir)
	var log syncBuffer
	cmd.Stdout, cmd.Stderr = &log, &log
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	t.Cleanup(func() {
		if !killed {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	var addr string
	if !waitFor(func() bool { addr = loggedAddr(&log, "listening"); return addr != "" }) {
		t.Fatalf("the node never listened:\n%s", log.String())
	}

	row := func(name string) []string { return []string{"01", "908", "1111111", name, "Tree Ave.", "NYC", "07974"} }
	do(t, "POST", addr+"/v1/batch", map[string]any{"ops": []map[string]any{
		{"op": "insert", "values": row("Ann")},
		{"op": "update", "id": 0, "values": row("Mike")},
		{"op": "delete", "id": 1},
	}}, http.StatusOK)
	do(t, "PUT", addr+"/v1/tuples/2", map[string]any{"values": row("Rick")}, http.StatusOK)
	do(t, "DELETE", addr+"/v1/tuples/3", nil, http.StatusOK)
	do(t, "POST", addr+"/v1/tuples", map[string]any{"values": row("Eve")}, http.StatusOK)
	tuples, report := getRaw(t, addr+"/v1/tuples"), getRaw(t, addr+"/v1/violations")
	if !bytes.Contains(tuples, []byte(`"Eve"`)) || !bytes.Contains(tuples, []byte(`"total": 8`)) {
		t.Fatalf("the writes did not land:\n%s", tuples)
	}

	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	killed = true
	if err := cmd.Wait(); err == nil || !strings.Contains(err.Error(), "killed") {
		t.Fatalf("the node exited with %v, want killed", err)
	}

	p := startRun(t, "-state", dir)
	if got := getRaw(t, p.addr+"/v1/tuples"); !bytes.Equal(got, tuples) {
		t.Fatalf("restarted /v1/tuples differs:\n%s\nvs\n%s", got, tuples)
	}
	if got := getRaw(t, p.addr+"/v1/violations"); !bytes.Equal(got, report) {
		t.Fatalf("restarted /v1/violations differs:\n%s\nvs\n%s", got, report)
	}
}

// assertClosedAndCompacted: the state directory's lock is free, and its WAL
// was folded into the snapshot on the way out.
func assertClosedAndCompacted(t *testing.T, dir string) {
	t.Helper()
	store, err := violation.OpenStore(dir, violation.StoreOptions{})
	if err != nil {
		t.Fatalf("the store was left open: %v", err)
	}
	defer store.Close()
	if n := store.Pending(); n != 0 {
		t.Errorf("%d WAL ops pending after shutdown, want 0 (the final compaction)", n)
	}
}

// TestRunCluster is the four-process topology inside one: three node runs
// and a coordinator run over them on loopback listeners. The coordinator
// forms the cluster from -shards alone, one write through it lands, its
// merged read equals a single node's on the same rows, and every run returns
// nil when stopped.
func TestRunCluster(t *testing.T) {
	rulesPath := rulesFile(t, clusterRules)
	var procs []*proc
	var urls []string
	for i := 0; i < 4; i++ { // three shards and the single node
		p := startRun(t, "-rules", rulesPath, "-schema", strings.Join(clusterSchema, ","))
		procs, urls = append(procs, p), append(urls, p.addr)
	}
	single := urls[3]
	coord := startRun(t, "-coordinator", "-shards", strings.Join(urls[:3], ","))
	procs = append(procs, coord)

	health := do(t, "GET", coord.addr+"/v1/health", nil, http.StatusOK)
	if health["mode"] != "coordinator" || health["status"] != "ok" || fmt.Sprint(health["partition_key"]) != "[CC]" {
		t.Fatalf("coordinator health = %v", health)
	}
	rows := map[string]any{"rows": [][]string{
		{"01", "908", "1111111", "Mike", "Tree Ave.", "MH", "07974"},
		{"01", "908", "1111111", "Rick", "Tree Ave.", "NYC", "07974"},
		{"44", "131", "3333333", "Ben", "High St.", "EDI", "EH4 1DT"},
		{"44", "131", "4444444", "Ian", "Port PI", "EDI", "EH4 1DT"},
		{"07", "212", "2222222", "Joe", "5th Ave", "NYC", "01202"},
	}}
	for _, base := range []string{coord.addr, single} {
		if got := ints(t, do(t, "POST", base+"/v1/tuples", rows, http.StatusOK)["ids"]); fmt.Sprint(got) != "[0 1 2 3 4]" {
			t.Fatalf("insert through %s: ids %v", base, got)
		}
	}
	merged := do(t, "GET", coord.addr+"/v1/violations", nil, http.StatusOK)
	if c, s := canonicalReport(t, merged), canonicalReport(t, do(t, "GET", single+"/v1/violations", nil, http.StatusOK)); c != s {
		t.Fatalf("merged read diverges from the single node\ncoordinator: %s\nsingle node: %s", c, s)
	}
	if got := ints(t, merged["dirty"]); fmt.Sprint(got) != "[0 1 2 3]" {
		t.Fatalf("merged dirty set = %v, want [0 1 2 3]", got)
	}

	// Coordinator first: its drain may still be talking to the shards.
	for i := len(procs) - 1; i >= 0; i-- {
		procs[i].stop()
		if err := procs[i].wait(t); err != nil {
			t.Errorf("run %d = %v\n%s", i, err, procs[i].log.String())
		}
	}
}

// TestShutdownDrainsBeforeClose: a drain that times out — a request still in
// flight when the grace ends — must not skip the node's cleanup or reorder
// it. serve returns the shutdown error, and background work that was running
// finishes against an open store before the final compaction and the close.
func TestShutdownDrainsBeforeClose(t *testing.T) {
	dir := t.TempDir()
	var logs syncBuffer
	cfg := fixtureConfig(dir)
	cfg.log = testLog(&logs, "json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := bootNode(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Background work that outlives the drain: it notices the shutdown, takes
	// a while longer, then uses the store.
	var order []string
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		<-s.baseCtx.Done()
		time.Sleep(50 * time.Millisecond)
		if _, err := violation.OpenStore(dir, violation.StoreOptions{}); err == nil {
			order = append(order, "store already closed")
		}
		if err := s.store.Compact(s.eng); err != nil {
			order = append(order, "compaction failed: "+err.Error())
		}
		order = append(order, "drain")
	}()

	done := make(chan error, 1)
	go func() { done <- s.serve(ctx, "127.0.0.1:0", "", 20*time.Millisecond) }()
	if !waitFor(func() bool { return loggedAddr(&logs, "listening") != "" }) {
		t.Fatalf("never listened:\n%s", logs.String())
	}
	tuples := loggedAddr(&logs, "listening") + "/v1/tuples"
	do(t, "POST", tuples, map[string]any{"values": []string{"01", "212", "9999999", "Ann", "5th Ave", "NYC", "01202"}}, http.StatusOK)

	// Park a request: its body never ends, so its handler never returns.
	body, bodyW := io.Pipe()
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		if resp, err := http.Post(tuples, "application/json", body); err == nil {
			resp.Body.Close()
		}
	}()
	if _, err := bodyW.Write([]byte(`{"rows":[`)); err != nil {
		t.Fatal(err)
	}
	if !waitFor(func() bool { return s.obs.inFlight.Value() == 1 }) {
		t.Fatal("the parked request never reached its handler")
	}

	cancel()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("serve = %v, want the drain's deadline error", err)
	}
	if fmt.Sprint(order) != "[drain]" {
		t.Fatalf("cleanup order = %v, want the background work to finish first, against an open store", order)
	}
	// The severed connection ends the parked handler.
	if !waitFor(func() bool { return s.obs.inFlight.Value() == 0 }) {
		t.Fatal("the parked handler outlived serve")
	}
	bodyW.Close()
	<-parked
	assertClosedAndCompacted(t, dir)
}

// TestServeListenError: a serving or debug address that cannot be bound is
// run's error, and the node's cleanup still runs — the state directory is
// released.
func TestServeListenError(t *testing.T) {
	held := startRun(t, "-rules", "testdata/rules.txt", "-data", "testdata/cust.csv")
	taken := strings.TrimPrefix(held.addr, "http://")
	dir := t.TempDir()
	for _, args := range [][]string{{"-addr", taken}, {"-addr", "127.0.0.1:0", "-debug-addr", taken}} {
		args = append(args, "-rules", "testdata/rules.txt", "-data", "testdata/cust.csv", "-state", dir)
		err := run(context.Background(), args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "address already in use") {
			t.Fatalf("run %v = %v, want the listen error", args, err)
		}
		assertClosedAndCompacted(t, dir)
	}
}

// TestSlowHeaderClientCutOff: a client that sends half a request line and
// then nothing is disconnected once the header timeout passes, instead of
// holding its connection for good.
func TestSlowHeaderClientCutOff(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/hea"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// The server may answer 408 first; either way it must close.
	_, err = io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("the server kept a connection whose headers never arrived")
	}
}
