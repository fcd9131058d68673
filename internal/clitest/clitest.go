// Package clitest checks a command's contract where operators meet it, on
// the command line: Main builds the command under test once per test
// binary, and Run runs it.
package clitest

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// bin is the binary Main built.
var bin string

// Main builds the package in the working directory, runs the tests against
// it and exits with their status. Call it from TestMain.
func Main(m *testing.M) {
	dir, err := os.MkdirTemp("", "clitest")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "cmd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// Run runs the binary with args and returns its stdout, stderr and exit
// code.
func Run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return out.String(), errOut.String(), 0
	case errors.As(err, &ee):
		return out.String(), errOut.String(), ee.ExitCode()
	}
	t.Fatalf("%s %v: %v", filepath.Base(bin), args, err)
	return "", "", 0
}
