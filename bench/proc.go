package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// repoRoot walks up from the working directory to the directory holding the
// module's go.mod, so the harness works from the repository root (the
// benchmark command) and from bench/ (go test).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && bytes.HasPrefix(data, []byte("module repro\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("go.mod of module repro not found above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildBinaries compiles the two programs under test into binDir. It runs
// before any clock starts; the go build cache makes a repeat call cheap.
func buildBinaries(root, binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/cfddiscover", "./cmd/cfdserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building cfddiscover and cfdserve: %v\n%s", err, out)
	}
	return nil
}

// usage is what a finished child cost: CPU seconds (user + system) and peak
// resident set size in MB.
type usage struct {
	cpuS  float64
	rssMB float64
}

func usageOf(ps *os.ProcessState) usage {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return usage{}
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	// Linux reports ru_maxrss in KiB.
	return usage{cpuS: tv(ru.Utime) + tv(ru.Stime), rssMB: float64(ru.Maxrss) / 1024}
}

// runCLI runs one child to completion and returns its wall time and usage.
// Output goes to logPath so a failure can be read afterwards.
func runCLI(logPath, bin string, args ...string) (time.Duration, usage, error) {
	log, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, usage{}, err
	}
	defer log.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	start := time.Now()
	err = cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return wall, usage{}, fmt.Errorf("%s %s: %w (see %s)", filepath.Base(bin), strings.Join(args, " "), err, logPath)
	}
	return wall, usageOf(cmd.ProcessState), nil
}

// server is one durable cfdserve on a loopback port: the process comes and
// goes (start, kill), the address, state directory and client stay.
type server struct {
	bin     string
	args    []string // the flags of every start: address, mining parameters, state directory, -fsync
	logPath string
	cmd     *exec.Cmd
	exited  chan struct{} // closed once cmd has been reaped
	client  *client
}

// newServer prepares a cfdserve that keeps its state in stateDir and logs to
// the run's scratch directory. Nothing runs until start.
func newServer(e *env, stateDir string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	return &server{
		bin:     filepath.Join(e.binDir, "cfdserve"),
		logPath: filepath.Join(e.workDir, "cfdserve.log"),
		client:  newClient(addr),
		args: []string{"-addr", addr, "-support", strconv.Itoa(serveSupport), "-maxlhs", strconv.Itoa(serveMaxLHS),
			"-state", stateDir, "-fsync"},
	}, nil
}

// firstBoot are the extra flags of a start on an empty state directory; a
// restart recovers from the directory alone.
func firstBoot(in *inputs) []string {
	return []string{"-sample", in.sampleCSV, "-data", in.dataCSV}
}

// freeAddr asks the kernel for an unused loopback port. The port is released
// before cfdserve binds it; nothing else on the box competes for it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// start launches the process and returns once GET /v1/health answers 200:
// the time a user waits from exec to a usable server (rule mining, CSV load
// or snapshot + WAL recovery, index build, listen).
func (s *server) start(extra ...string) (time.Duration, error) {
	log, err := os.OpenFile(s.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	defer log.Close() // the child keeps its own descriptor
	s.cmd = exec.Command(s.bin, append(extra, s.args...)...)
	s.cmd.Stdout, s.cmd.Stderr = log, log
	dieWithParent(s.cmd)
	begin := time.Now()
	if err := s.cmd.Start(); err != nil {
		return 0, err
	}
	exited := make(chan struct{})
	go func() {
		// Reaps the child whenever it dies; kill relies on this being the
		// only Wait.
		_ = s.cmd.Wait()
		close(exited)
	}()
	s.exited = exited
	for {
		if _, err := s.client.health(); err == nil {
			return time.Since(begin), nil
		}
		select {
		case <-exited:
			return 0, fmt.Errorf("cfdserve exited during start-up (see %s)", s.logPath)
		case <-time.After(time.Millisecond):
		}
		if time.Since(begin) > 2*time.Minute {
			s.kill()
			return 0, fmt.Errorf("cfdserve not healthy after 2 minutes (see %s)", s.logPath)
		}
	}
}

// kill sends SIGKILL, waits for the process to be reaped and returns what
// its whole life cost. Unflushed state dies with it: only what the WAL and
// snapshots hold survives.
func (s *server) kill() usage {
	if s.cmd == nil {
		return usage{}
	}
	_ = s.cmd.Process.Kill() // already-exited is fine
	<-s.exited
	s.client.closeIdle()
	u := usageOf(s.cmd.ProcessState)
	s.cmd = nil
	return u
}

// resetPeakRSS restarts the kernel's high-water mark of the process's
// resident set, so peakRSSMB reports the peak since this call. Where the
// kernel refuses, the mark simply keeps running and later peaks include
// earlier ones.
func (s *server) resetPeakRSS() {
	_ = os.WriteFile("/proc/"+strconv.Itoa(s.cmd.Process.Pid)+"/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the live process's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// cpuSoFar reads the live process's consumed CPU seconds from /proc.
func (s *server) cpuSoFar() (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the line, i.e. the 12th and 13th after ')'.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", data)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", data)
	}
	const clockTicks = 100 // USER_HZ; fixed at 100 on Linux
	return (ut + st) / clockTicks, nil
}
