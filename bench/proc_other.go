//go:build !linux

package main

import "os/exec"

// dieWithParent has no portable form; off Linux an interrupted run can leave
// its cfdserve behind.
func dieWithParent(*exec.Cmd) {}
