package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run misptrace as a child process: the test
// binary invoked as `<binary> misptrace <flags>` is misptrace.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "misptrace" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownMode: a misspelt -mode is an error, not a shred-mode run.
func TestUnknownMode(t *testing.T) {
	cmd := exec.Command(os.Args[0], "misptrace", "-o", t.TempDir(), "-w", "dense_mmm", "-mode", "threads")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 || !strings.Contains(stderr.String(), `unknown mode "threads"`) {
		t.Fatalf("err %v, stderr:\n%s\nwant a non-zero exit naming the mode", err, stderr.String())
	}
}
