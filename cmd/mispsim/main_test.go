package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"misp/internal/core"
	"misp/internal/serve"
	"misp/internal/shredlib"
	"misp/internal/workloads"
)

// TestMain lets a test run mispsim as a child process: the test binary
// invoked as `<binary> mispsim <flags>` is mispsim.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "mispsim" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownMode: a misspelt -mode is an error, not a shred-mode run.
func TestUnknownMode(t *testing.T) {
	cmd := exec.Command(os.Args[0], "mispsim", "-w", "dense_mmm", "-size", "test", "-mode", "threads")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 || !strings.Contains(stderr.String(), `unknown mode "threads"`) {
		t.Fatalf("err %v, stderr:\n%s\nwant a non-zero exit naming the mode", err, stderr.String())
	}
}

// TestRunFilesMatchServe: mispsim -o writes counters.csv, metrics.txt
// and trace.json byte for byte as the serve daemon renders them for the
// same run with trace on (the PC profile -o also records changes none
// of them), plus a profile.txt that names the program's symbols.
func TestRunFilesMatchServe(t *testing.T) {
	for _, tc := range []struct {
		app, mode, top string
		topology       []int
	}{
		{"gauss", "shred", "3", []int{3}},
		{"swim", "thread", "0,0,0,0", []int{0, 0, 0, 0}},
	} {
		t.Run(tc.app+"-"+tc.mode, func(t *testing.T) {
			dir := t.TempDir()
			mispsim(t, "-w", tc.app, "-mode", tc.mode, "-top", tc.top, "-size", "test", "-o", dir)

			req, err := (&serve.Request{App: tc.app, Mode: tc.mode, Topology: tc.topology, Size: "test", Trace: true}).Canonicalize()
			if err != nil {
				t.Fatal(err)
			}
			art, _, err := serve.Execute(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"counters.csv", "metrics.txt", "trace.json"} {
				got, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, art[name]) {
					t.Errorf("%s: mispsim -o wrote %d bytes, serve renders %d, and they differ", name, len(got), len(art[name]))
				}
			}

			profile, err := os.ReadFile(filepath.Join(dir, "profile.txt"))
			if err != nil {
				t.Fatal(err)
			}
			w, err := workloads.ByName(tc.app)
			if err != nil {
				t.Fatal(err)
			}
			mode, err := shredlib.ParseMode(tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := workloads.Prepare(w, mode, workloads.DefaultConfig(core.Topology(tc.topology)), workloads.SizeTest)
			if err != nil {
				t.Fatal(err)
			}
			defer pr.Release()
			if !namesSymbol(string(profile), pr.Proc.Prog.Symbols) {
				t.Fatalf("profile.txt names none of the program's symbols:\n%s", profile)
			}
		})
	}
}

// TestRunFilesBareOS: -o on a -run program writes the trace too.
func TestRunFilesBareOS(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "exit.svm")
	prog := "main:\n    li r1, 0\n    li r0, 1\n    syscall\n"
	if err := os.WriteFile(src, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")
	mispsim(t, "-run", src, "-top", "1", "-o", out)
	data, err := os.ReadFile(filepath.Join(out, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("trace.json: %d events, err %v", len(doc.TraceEvents), err)
	}
	for _, name := range []string{"counters.csv", "metrics.txt", "profile.txt"} {
		if fi, err := os.Stat(filepath.Join(out, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", name, err)
		}
	}
}

// mispsim runs mispsim as a child process with args and fails the test
// on a non-zero exit.
func mispsim(t *testing.T, args ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"mispsim"}, args...)...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("mispsim %v: %v\n%s", args, err, out.String())
	}
}

// namesSymbol reports whether any line of a profile report ends in one
// of syms' names, bare or with an offset.
func namesSymbol(profile string, syms map[string]uint64) bool {
	for _, line := range strings.Split(profile, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		name, _, _ := strings.Cut(f[len(f)-1], "+")
		if _, ok := syms[name]; ok {
			return true
		}
	}
	return false
}
