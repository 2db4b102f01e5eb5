// mispbench regenerates the paper's tables and figures on the
// simulated MISP machine.
//
// Usage:
//
//	mispbench [-exp all|fig4|table1|fig5|fig7|table2|ring|probe|dynamic|signalsweep|resilience]
//	          [-size test|small|ref] [-seqs 8] [-apps a,b,c] [-csv dir]
//	          [-parallel N]
//
// `-parallel N` fans the independent simulation runs across N host
// cores (0 = all cores). Every run is an isolated deterministic
// machine, so the tables and CSVs are byte-identical for any N; only
// the wall clock changes. Host-side timing goes to stdout, never into
// the CSVs; the simulator's own speed is measured by `go run
// ./benchmark` (benchmark/README.md). `-csv DIR` also writes
// DIR/PROVENANCE, which records what produced the CSVs.
package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"misp/internal/cli"
	"misp/internal/core"
	"misp/internal/exp"
	"misp/internal/report"
	"misp/internal/sweep"
	"misp/internal/version"
	"misp/internal/workloads"
)

func main() {
	expName := flag.String("exp", "all", "experiment: "+strings.Join(exp.Names(), ", ")+" (all: every one but resilience)")
	sizeName := flag.String("size", "small", "problem size: test, small, ref")
	seqs := flag.Int("seqs", 8, "total sequencers per configuration")
	apps := flag.String("apps", "", "comma-separated workload subset (default: all 16)")
	csvDir := flag.String("csv", "", "also write results as CSV files (and a PROVENANCE file) into this directory")
	maxLoad := flag.Int("load", 4, "fig7: maximum number of competing processes")
	parallel := flag.Int("parallel", 0, "host workers for independent simulation runs (0 = all cores, 1 = serial); results are identical for any value")
	faultSeeds := flag.Int("faultseeds", 5, "resilience: seeded fault campaigns per sweep cell")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.String())
		return
	}
	which := *expName
	if !slices.Contains(exp.Names(), which) {
		// A typo in a gate must not pass by doing nothing.
		fmt.Fprintf(os.Stderr, "mispbench: unknown experiment %q (valid: %s)\n", which, strings.Join(exp.Names(), ", "))
		os.Exit(2)
	}

	size, err := workloads.ParseSize(*sizeName)
	if err != nil {
		fatal(err)
	}

	// First SIGINT/SIGTERM cancels the sweeps at their next event
	// horizon and fatal() removes the files written so far. A second
	// signal hard-exits.
	ctx, stop := cli.SignalContext("mispbench")
	defer stop()

	// Profiles flush on the normal return and on every fatal() path —
	// including the first Ctrl-C, which cancels the run and unwinds
	// through fatal — so interrupted profiles are still loadable.
	stopProf, err := cli.Profiles("mispbench", *cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	stopProfiles = stopProf
	defer stopProf()

	var stats sweep.Stats
	opt := exp.Options{Size: size, Seqs: *seqs, Parallel: *parallel, SweepStats: &stats, Ctx: ctx}
	appsLabel := "all"
	if *apps != "" {
		opt.Apps, appsLabel = cli.List(*apps), *apps
	}
	emit := func(csv string, t *report.Table) {
		fmt.Println(t.String())
		if *csvDir != "" {
			write(filepath.Join(*csvDir, csv+".csv"), t.CSV())
		}
	}
	if err := exp.Run(opt, exp.Args{MaxLoad: *maxLoad, FaultSeeds: *faultSeeds}, emit, which); err != nil {
		fatal(err)
	}

	if *csvDir != "" {
		// Everything that can change a CSV byte — never -parallel — then
		// the base machine configuration, whose hash moves with any
		// field, and last the build, the one line two runs that wrote the
		// same CSVs may disagree on.
		base := workloads.DefaultConfig(core.Topology{*seqs - 1})
		write(filepath.Join(*csvDir, "PROVENANCE"), fmt.Sprintf(
			"exp %s\nsize %s\nseqs %d\napps %s\nload %d\nfaultseeds %d\n"+
				"signal_cost %d\nring_policy %s\nphys_mem %d\ntimer_interval %d\nconfig_sha256 %x\nversion %s\n",
			which, size, *seqs, appsLabel, *maxLoad, *faultSeeds,
			base.SignalCost, base.RingPolicy, base.PhysMem, base.TimerInterval,
			sha256.Sum256([]byte(fmt.Sprintf("%+v", base))), version.String()))
	}

	// Host-side sweep accounting goes to stdout only: wall times are not
	// deterministic, so they must never reach the CSV outputs.
	if stats.Jobs > 0 {
		fmt.Println(report.SweepSummary(stats).String())
	}
}

// written tracks the files this invocation produced so a failed one can
// take them back out: a partial output set is worse than none, because
// it looks complete.
var written []string

func write(path, content string) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		fatal(err)
	}
	written = append(written, path)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("(wrote %s)\n\n", path)
}

// stopProfiles flushes any active -cpuprofile/-memprofile output; set
// in main, called on the fatal paths that bypass its defer.
var stopProfiles = func() {}

// fatal removes every file this invocation wrote, whatever the cause —
// a cancellation, a checksum mismatch, a failed write — and exits 130
// for a cancellation, 1 otherwise.
func fatal(err error) {
	stopProfiles()
	for _, p := range written {
		if os.Remove(p) == nil {
			fmt.Fprintf(os.Stderr, "mispbench: removed partial output %s\n", p)
		}
	}
	fmt.Fprintln(os.Stderr, "mispbench:", err)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		os.Exit(130)
	}
	os.Exit(1)
}
