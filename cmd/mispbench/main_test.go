package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test run mispbench as a child process: the test
// binary invoked as `<binary> mispbench <flags>` is mispbench.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "mispbench" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mispbench runs the command with args and returns its exit code and
// standard error.
func mispbench(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"mispbench"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

// TestFailedRunRemovesItsOutputs: a run that fails partway takes back
// every file it wrote, so it never leaves fresh CSVs beside stale ones.
func TestFailedRunRemovesItsOutputs(t *testing.T) {
	dir := t.TempDir()
	// A non-empty directory where table1.csv goes: fig4.csv is written,
	// then writing table1.csv fails.
	if err := os.MkdirAll(filepath.Join(dir, "table1.csv", "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	code, stderr := mispbench(t, "-exp", "all", "-size", "test", "-apps", "dense_mmm", "-parallel", "1", "-csv", dir)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "removed partial output "+filepath.Join(dir, "fig4.csv")) {
		t.Errorf("stderr does not report removing fig4.csv:\n%s", stderr)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "table1.csv" {
			t.Errorf("%s left behind by a failed run", e.Name())
		}
	}
}

// TestUnknownExperiment: a misspelt -exp is an error, not a run that
// does nothing and succeeds.
func TestUnknownExperiment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	code, stderr := mispbench(t, "-exp", "fig6", "-csv", dir)
	if code != 2 || !strings.Contains(stderr, `unknown experiment "fig6"`) || !strings.Contains(stderr, "signalsweep") {
		t.Fatalf("exit %d, stderr:\n%s\nwant exit 2 naming the valid experiments", code, stderr)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("-csv dir created for an unknown experiment (stat: %v)", err)
	}
}

// TestAppsTrimmed: -apps "a, b" names the same apps as "a,b".
func TestAppsTrimmed(t *testing.T) {
	if code, stderr := mispbench(t, "-exp", "table1", "-size", "test", "-apps", "dense_mmm, kmeans", "-parallel", "1"); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
}
