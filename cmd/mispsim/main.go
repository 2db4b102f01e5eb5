// mispsim runs a single workload (or an .svm program) on one machine
// configuration and reports detailed per-sequencer statistics — the
// coarse-grained event accounting the paper's prototype firmware
// provides, plus the optional fine-grained event trace (§4.1).
//
// Usage:
//
//	mispsim -w raytracer [-mode shred|thread] [-top 7 | -top 3,3] [-size small] [-trace]
//	mispsim -run prog.svm [-top 3]
//	mispsim -w gauss -size test -o out                     # write the run files
//	mispsim -w swim -snapshot ckpt.misp -snapat 50000000   # checkpoint mid-run
//	mispsim -w swim -restore ckpt.misp                     # resume to completion
//
// -o DIR records the event log and the per-PC profile and writes the
// run's files to DIR: counters.csv (per-sequencer counters),
// metrics.txt (the metrics registry), trace.json (Chrome trace-event
// JSON; open in ui.perfetto.dev) and profile.txt (the hottest PCs,
// symbolized). The first three are byte for byte what the serve daemon
// returns for the same run with trace on.
//
// A restored run is bit-identical to the uninterrupted one: same
// cycles, checksum, counters, and trace events. `-w` and `-size` must
// match the checkpointed run; the machine configuration is taken from
// the snapshot itself.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"

	"misp/internal/asm"
	"misp/internal/cli"
	"misp/internal/core"
	"misp/internal/fault"
	"misp/internal/obs"
	"misp/internal/report"
	"misp/internal/shredlib"
	"misp/internal/snap"
	"misp/internal/version"
	"misp/internal/workloads"
)

func main() {
	wname := flag.String("w", "", "workload name (see -list)")
	list := flag.Bool("list", false, "list workloads and exit")
	modeName := flag.String("mode", "shred", "runtime: shred (ShredLib) or thread (threadlib)")
	topSpec := flag.String("top", "7", "topology: comma-separated AMS count per processor (7 = 1x8 MISP; 0,0,0,0 = 4-way SMP)")
	sizeName := flag.String("size", "small", "problem size: test, small, ref")
	trace := flag.Bool("trace", false, "print the fine-grained firmware event trace")
	traceMax := flag.Int("tracemax", 200, "maximum trace events to print")
	outDir := flag.String("o", "", "write counters.csv, metrics.txt, trace.json and profile.txt to this directory (records the event log and PC profile)")
	metrics := flag.Bool("metrics", false, "print the metrics registry dump")
	runFile := flag.String("run", "", "assemble and run an .svm file under BareOS instead of a workload")
	signal := flag.Uint64("signal", 5000, "inter-sequencer signal cost in cycles")
	policy := flag.String("ringpolicy", "suspend-all", "ring policy: suspend-all or monitor-cr")
	faultSeed := flag.Uint64("faultseed", 0, "fault injection seed (with -faultperiod)")
	faultPeriod := flag.Uint64("faultperiod", 0, "mean retirements between injected faults per kind (0 = fault plane disabled)")
	faultKinds := flag.String("faultkinds", "", "comma-separated fault kinds to inject (default: all); see internal/fault")
	watchdog := flag.Uint64("watchdog", 0, "livelock watchdog horizon in cycles (0 = 8x timer interval when faults are on, else off)")
	snapPath := flag.String("snapshot", "", "pause at -snapat, write a snapshot to this file, and exit")
	snapAt := flag.Uint64("snapat", 0, "cycle past which -snapshot captures (the run pauses at the first quiescent point beyond it)")
	restorePath := flag.String("restore", "", "resume from a snapshot file instead of starting fresh (config flags are ignored; the snapshot's configuration applies)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.String())
		return
	}
	if *list {
		for _, w := range workloads.All() {
			fmt.Printf("%-18s %s\n", w.Name, w.Suite)
		}
		return
	}

	top, err := core.ParseTopology(*topSpec)
	if err != nil {
		fatal(err)
	}
	cfg := workloads.DefaultConfig(top)
	cfg.SignalCost = *signal
	cfg.TraceEvents = *trace || *outDir != ""
	cfg.ProfilePC = *outDir != ""
	cfg.WatchdogHorizon = *watchdog
	if *faultPeriod != 0 {
		kinds, err := fault.ParseKinds(cli.List(*faultKinds))
		if err != nil {
			fatal(err)
		}
		cfg.Fault = fault.Uniform(*faultSeed, *faultPeriod, kinds...)
	}
	if cfg.RingPolicy, err = core.ParseRingPolicy(*policy); err != nil {
		fatal(err)
	}
	mode, err := shredlib.ParseMode(*modeName)
	if err != nil {
		fatal(err)
	}

	// First SIGINT/SIGTERM cancels the run at its next event horizon;
	// a second one hard-exits.
	ctx, stop := cli.SignalContext("mispsim")
	defer stop()

	// Profiles flush on the normal return and on every fatal() path —
	// including the first Ctrl-C, which cancels the run and unwinds
	// through fatal — so interrupted profiles are still loadable.
	stopProf, err := cli.Profiles("mispsim", *cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	stopProfiles = stopProf
	defer stopProf()

	if *runFile != "" && (*snapPath != "" || *restorePath != "") {
		fatal(fmt.Errorf("-snapshot/-restore work on workload runs, not -run programs"))
	}

	if *runFile != "" {
		src, err := os.ReadFile(*runFile)
		if err != nil {
			fatal(err)
		}
		prog, err := asm.Assemble(string(src))
		if err != nil {
			fatal(err)
		}
		bos, m, err := core.RunBareCtx(ctx, cfg, prog)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("exit code: %d\n", bos.ExitCode)
		if bos.Out.Len() > 0 {
			fmt.Printf("output: %s\n", bos.Out.String())
		}
		fmt.Print("\n", report.SeqCounters(m))
		if *trace {
			printTrace(m, *traceMax)
		}
		finish(m, prog, *outDir, *metrics)
		return
	}

	if *wname == "" {
		fatal(fmt.Errorf("need -w <workload> or -run <file.svm>; try -list"))
	}
	w, err := workloads.ByName(*wname)
	if err != nil {
		fatal(err)
	}
	size, err := workloads.ParseSize(*sizeName)
	if err != nil {
		fatal(err)
	}
	var pr *workloads.Prepared
	if *restorePath != "" {
		s, err := snap.LoadFile(*restorePath)
		if err != nil {
			fatal(err)
		}
		m, k, err := s.Fork(nil)
		if err != nil {
			fatal(err)
		}
		pr, err = workloads.Resume(w, mode, m, k)
		if err != nil {
			fatal(err)
		}
		cfg = m.Cfg
		top = cfg.Topology
		fmt.Printf("restored   %s at cycle %d\n", *restorePath, m.MaxClock())
	} else {
		pr, err = workloads.Prepare(w, mode, cfg, size)
		if err != nil {
			fatal(err)
		}
	}
	if *snapPath != "" {
		if *snapAt == 0 {
			fatal(fmt.Errorf("-snapshot needs -snapat <cycle>"))
		}
		pr.Machine.SetPause(*snapAt)
	}
	res, err := pr.RunCtx(ctx)
	if err != nil {
		if *snapPath != "" && errors.Is(err, core.ErrPaused) {
			s, err := snap.Capture(pr.Machine, pr.Kernel)
			if err != nil {
				fatal(err)
			}
			if err := s.SaveFile(*snapPath); err != nil {
				fatal(err)
			}
			fmt.Printf("paused at cycle %d; wrote %d-byte snapshot to %s\n",
				pr.Machine.MaxClock(), s.Size(), *snapPath)
			fmt.Printf("resume with: mispsim -w %s -size %s -restore %s\n", w.Name, size, *snapPath)
			return
		}
		fatal(err)
	}
	if *snapPath != "" {
		fmt.Printf("(run finished before cycle %d; no snapshot written)\n\n", *snapAt)
	}
	want := w.Ref(size)
	status := "OK"
	if res.Checksum != want {
		status = fmt.Sprintf("MISMATCH (reference %g)", want)
	}
	fmt.Printf("workload   %s (%s, %s)\n", w.Name, mode, size)
	fmt.Printf("topology   %s  signal=%d  policy=%s\n", top, cfg.SignalCost, cfg.RingPolicy)
	fmt.Printf("cycles     %d\n", res.Cycles)
	fmt.Printf("checksum   %g  [%s]\n", res.Checksum, status)
	fmt.Printf("kernel     ticks=%d switches=%d syscalls=%d pagefaults=%d ipis=%d\n",
		res.Kernel.Stats.Ticks, res.Kernel.Stats.Switches, res.Kernel.Stats.Syscalls,
		res.Kernel.Stats.PageFaults, res.Kernel.Stats.IPIs)
	fmt.Print("\n", report.SeqCounters(res.Machine))
	if *trace {
		printTrace(res.Machine, *traceMax)
	}
	finish(res.Machine, res.Proc.Prog, *outDir, *metrics)
	if res.Checksum != want {
		fatal(fmt.Errorf("%s: checksum %g does not match reference %g", w.Name, res.Checksum, want))
	}
}

// finish emits the optional observability outputs: the metrics dump,
// the end-of-run summary that surfaces event-log loss when tracing was
// on, and the run files -o asked for.
func finish(m *core.Machine, prog *asm.Program, outDir string, metrics bool) {
	if metrics {
		fmt.Println("\nmetrics registry:")
		fmt.Print(m.Obs.Metrics.String())
		if len(m.Obs.Metrics.HostNames()) > 0 {
			fmt.Println("\nhost section:")
			m.Obs.Metrics.WriteHostTo(os.Stdout)
		}
	}
	if m.Obs.Bus.Enabled() {
		fmt.Println()
		fmt.Print(report.RunSummary(m))
	}
	if outDir != "" {
		names, err := writeRunFiles(m, prog, outDir)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %v to %s\n", names, outDir)
	}
}

// profileTop is how many of the hottest PCs profile.txt lists.
const profileTop = 30

// writeRunFiles writes report.RunFiles plus, when the machine kept a
// PC profile, profile.txt symbolized against prog, and returns the
// file names written.
func writeRunFiles(m *core.Machine, prog *asm.Program, dir string) ([]string, error) {
	files, err := report.RunFiles(m)
	if err != nil {
		return nil, err
	}
	if m.Obs.Prof != nil {
		var buf bytes.Buffer
		if err := m.Obs.Prof.WriteTo(&buf, obs.Symbolizer(prog.Symbols), profileTop); err != nil {
			return nil, err
		}
		files["profile.txt"] = buf.Bytes()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	names := slices.Sorted(maps.Keys(files))
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(dir, name), files[name], 0o644); err != nil {
			return nil, err
		}
	}
	return names, nil
}

func printTrace(m *core.Machine, max int) {
	fmt.Println("\nfirmware event trace:")
	ev := m.Obs.Bus.Events()
	if len(ev) > max {
		fmt.Printf("  (showing first %d of %d events)\n", max, len(ev))
		ev = ev[:max]
	}
	for _, e := range ev {
		fmt.Printf("  %12d %-10s %-14s a=0x%x b=0x%x\n", e.TS, m.Seqs[e.Seq].Name(), e.Kind, e.A, e.B)
	}
}

// stopProfiles flushes any active -cpuprofile/-memprofile output; set
// in main, called on the fatal paths that bypass its defer.
var stopProfiles = func() {}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "mispsim:", err)
	if errors.Is(err, context.Canceled) {
		os.Exit(130)
	}
	os.Exit(1)
}
