package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent makes the kernel SIGKILL the child when the harness itself
// dies — killed by a driver's timeout, say — so no cfdserve outlives a run.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
