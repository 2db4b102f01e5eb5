// mispbench regenerates the paper's tables and figures on the
// simulated MISP machine.
//
// Usage:
//
//	mispbench [-exp all|fig4|table1|fig5|fig7|table2|ring|probe|signalsweep]
//	          [-size test|small|ref] [-seqs 8] [-apps a,b,c] [-csv dir]
//	          [-parallel N]
//
// `-parallel N` fans the independent simulation runs across N host
// cores (0 = all cores). Every run is an isolated deterministic
// machine, so the tables and CSVs are byte-identical for any N; only
// the wall clock changes. Host-side timing goes to stdout, never into
// the CSVs; the simulator's own speed is measured by `go run
// ./benchmark` (benchmark/README.md).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"misp/internal/cli"
	"misp/internal/exp"
	"misp/internal/report"
	"misp/internal/sweep"
	"misp/internal/version"
	"misp/internal/workloads"
)

func main() {
	expName := flag.String("exp", "all", "experiment: all, fig4, table1, fig5, fig7, table2, ring, probe, dynamic, signalsweep, resilience")
	sizeName := flag.String("size", "small", "problem size: test, small, ref")
	seqs := flag.Int("seqs", 8, "total sequencers per configuration")
	apps := flag.String("apps", "", "comma-separated workload subset (default: all 16)")
	csvDir := flag.String("csv", "", "also write results as CSV files into this directory")
	maxLoad := flag.Int("load", 4, "fig7: maximum number of competing processes")
	parallel := flag.Int("parallel", 0, "host workers for independent simulation runs (0 = all cores, 1 = serial); results are identical for any value")
	faultSeeds := flag.Int("faultseeds", 5, "resilience: seeded fault campaigns per sweep cell")
	cold := flag.Bool("cold", false, "disable the snapshot warm-start pool (prepare every machine from scratch); results are identical either way")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.String())
		return
	}

	size, err := workloads.ParseSize(*sizeName)
	if err != nil {
		fatal(err)
	}

	// First SIGINT/SIGTERM cancels the sweeps at their next event
	// horizon and fatal() removes the CSVs written so far, so an
	// interrupted invocation never leaves a half-generated output set.
	// A second signal hard-exits.
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
	if !*cold {
		// One pool for the whole invocation: grid points that differ only
		// in run-only configuration (ring policy, fault plane, cost
		// model) fork a shared post-prepare snapshot instead of building
		// and zeroing a machine each. CSVs are byte-identical either way.
		opt.Warm = workloads.NewWarmPool()
	}
	if *apps != "" {
		opt.Apps = strings.Split(*apps, ",")
	}

	emit := func(name string, t *report.Table) {
		fmt.Println(t.String())
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fatal(err)
			}
			path := filepath.Join(*csvDir, name+".csv")
			csvWritten = append(csvWritten, path)
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("(wrote %s)\n\n", path)
		}
	}

	runEval := func() []*exp.AppResult {
		start := time.Now()
		results, err := exp.Evaluate(opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("evaluated %d apps x 3 configs in %v on %d workers (all checksums verified)\n\n",
			len(results), time.Since(start).Round(time.Millisecond), sweep.Workers(*parallel))
		return results
	}

	which := *expName
	var results []*exp.AppResult
	needEval := which == "all" || which == "fig4" || which == "table1"
	if needEval {
		results = runEval()
	}

	if which == "all" || which == "fig4" {
		emit("fig4", exp.Fig4Table(results, *seqs))
	}
	if which == "all" || which == "table1" {
		emit("table1", exp.Table1(results))
	}
	if which == "all" || which == "fig5" {
		rows, err := exp.Fig5(opt)
		if err != nil {
			fatal(err)
		}
		emit("fig5", exp.Fig5Table(rows))
	}
	if which == "all" || which == "fig7" {
		curves, err := exp.Fig7(exp.Fig7Options{
			Size: size, MaxLoad: *maxLoad,
			Parallel: *parallel, SweepStats: &stats, Ctx: ctx,
		})
		if err != nil {
			fatal(err)
		}
		emit("fig7", exp.Fig7Table(curves, *maxLoad))
	}
	if which == "all" || which == "table2" {
		stats, err := exp.AssessPorting(size)
		if err != nil {
			fatal(err)
		}
		emit("table2", exp.Table2(stats))
	}
	if which == "all" || which == "ring" {
		rows, err := exp.AblationRingPolicy(opt)
		if err != nil {
			fatal(err)
		}
		emit("ablation_ring", exp.RingPolicyTable(rows))
	}
	if which == "all" || which == "probe" {
		rows, err := exp.AblationProbe(opt)
		if err != nil {
			fatal(err)
		}
		emit("ablation_probe", exp.ProbeTable(rows))
	}
	if which == "all" || which == "dynamic" {
		rows, err := exp.AblationDynamicBinding(opt)
		if err != nil {
			fatal(err)
		}
		emit("ablation_dynamic", exp.DynamicTable(rows))
	}
	// The resilience sweep injects faults on purpose, so it is opt-in
	// rather than part of "all" (whose outputs are fault-free paper
	// reproductions).
	if which == "resilience" {
		ropt := exp.ResilienceOptions{
			Size: size, SeedsPerCell: *faultSeeds,
			Parallel: *parallel, SweepStats: &stats, Ctx: ctx,
			Warm: opt.Warm,
		}
		if opt.Apps != nil {
			ropt.App = opt.Apps[0]
		}
		rows, err := exp.Resilience(ropt)
		if err != nil {
			fatal(err)
		}
		emit("resilience", exp.ResilienceTable(rows))
	}

	if which == "all" || which == "signalsweep" {
		sweepOpt := opt
		if sweepOpt.Apps == nil {
			// The sweep re-simulates 4x per app; default to a subset.
			sweepOpt.Apps = []string{"dense_mmm", "kmeans", "sparse_mvm", "swim"}
		}
		rows, err := exp.AblationSignalSweep(sweepOpt, nil)
		if err != nil {
			fatal(err)
		}
		emit("ablation_signalsweep", exp.SweepTable(rows))
	}

	// Host-side sweep accounting goes to stdout only: wall times are not
	// deterministic, so they must never reach the CSV outputs.
	if stats.Jobs > 0 {
		fmt.Println(report.SweepSummary(stats).String())
	}
	if opt.Warm != nil {
		if hits, misses := opt.Warm.Stats(); hits+misses > 0 {
			fmt.Printf("warm pool: %d forks, %d cold prepares\n", hits, misses)
		}
	}
}

// csvWritten tracks the CSV paths produced by this invocation so an
// interrupted run can take them back out: a partial output set is
// worse than none, because it looks complete.
var csvWritten []string

// stopProfiles flushes any active -cpuprofile/-memprofile output; set
// in main, called on the fatal paths that bypass its defer.
var stopProfiles = func() {}

func fatal(err error) {
	stopProfiles()
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		for _, p := range csvWritten {
			if os.Remove(p) == nil {
				fmt.Fprintf(os.Stderr, "mispbench: removed partial output %s\n", p)
			}
		}
		fmt.Fprintln(os.Stderr, "mispbench:", err)
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "mispbench:", err)
	os.Exit(1)
}
