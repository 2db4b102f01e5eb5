// misptrace runs one workload (or a built-in parallel-sum demo) with
// the full observability stack enabled and writes three artifacts:
//
//	trace.json   Chrome trace-event JSON — open in ui.perfetto.dev or
//	             chrome://tracing; one track per sequencer, ring-0
//	             episodes / AMS stalls / proxy waits as spans.
//	profile.txt  flat per-PC cycle profile (hot-spot report), symbolized
//	             against the program's symbol table.
//	metrics.txt  the full metrics registry dump: serializing-event
//	             counters, per-ring cycle attribution, and the
//	             signal-latency / proxy-RTT / ring-stall histograms.
//
// Usage:
//
//	misptrace [-o dir] [-w workload] [-mode shred|thread] [-top 3] [-size test]
//	misptrace -o /tmp/obs -w raytracer -size small
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"misp/internal/asm"
	"misp/internal/core"
	"misp/internal/kernel"
	"misp/internal/obs"
	"misp/internal/report"
	"misp/internal/shredlib"
	"misp/internal/version"
	"misp/internal/workloads"
)

func main() {
	wname := flag.String("w", "", "workload name (default: built-in parallel-sum demo)")
	modeName := flag.String("mode", "shred", "runtime: shred (ShredLib) or thread (threadlib)")
	topSpec := flag.String("top", "3", "topology: comma-separated AMS count per processor")
	sizeName := flag.String("size", "test", "problem size: test, small, ref")
	outDir := flag.String("o", "misp-obs", "output directory for trace.json, profile.txt, metrics.txt")
	eventCap := flag.Int("cap", 1<<20, "event buffer capacity")
	keepOldest := flag.Bool("keep-oldest", false, "on overflow drop new events instead of evicting the oldest")
	hot := flag.Int("hot", 30, "hot spots to list in profile.txt (0 = all)")
	validate := flag.String("validate", "", "validate an existing Chrome trace JSON file and exit")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.String())
		return
	}
	if *validate != "" {
		if err := validateTrace(*validate); err != nil {
			fatal(err)
		}
		return
	}

	top, err := core.ParseTopology(*topSpec)
	if err != nil {
		fatal(err)
	}
	mode, err := shredlib.ParseMode(*modeName)
	if err != nil {
		fatal(err)
	}
	cfg := workloads.DefaultConfig(top)
	cfg.TraceEvents = true
	cfg.MaxTraceEvents = *eventCap
	cfg.TraceEvictOldest = !*keepOldest
	cfg.ProfilePC = true

	var (
		m     *core.Machine
		prog  *asm.Program
		label string
	)
	if *wname == "" {
		label = "parallel-sum"
		m, prog, err = runDemo(cfg)
	} else {
		label = *wname
		m, prog, err = runWorkload(*wname, mode, *sizeName, cfg)
	}
	if err != nil {
		fatal(err)
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	if err := writeFile(filepath.Join(*outDir, "trace.json"), func(f *os.File) error {
		return obs.WriteChromeTrace(f, m.Obs.Bus.Events(), m.Tracks())
	}); err != nil {
		fatal(err)
	}
	if err := writeFile(filepath.Join(*outDir, "profile.txt"), func(f *os.File) error {
		return m.Obs.Prof.WriteTo(f, obs.Symbolizer(prog.Symbols), *hot)
	}); err != nil {
		fatal(err)
	}
	if err := writeFile(filepath.Join(*outDir, "metrics.txt"), func(f *os.File) error {
		_, err := m.Obs.Metrics.WriteTo(f)
		return err
	}); err != nil {
		fatal(err)
	}

	fmt.Printf("misptrace: %s on %s\n\n", label, top)
	fmt.Print(report.RunSummary(m.Report()))
	fmt.Printf("\nkey latencies (cycles):\n")
	for _, name := range []string{obs.MSignalLatency, obs.MProxyRTT, obs.MRingStall} {
		h := m.Obs.Metrics.Histogram(name)
		fmt.Printf("  %-28s count=%-8d mean=%-10.1f p90=%d\n",
			name, h.Count(), h.Mean(), h.Quantile(0.90))
	}
	fmt.Printf("\nwrote %s/{trace.json,profile.txt,metrics.txt}\n", *outDir)
}

// runDemo executes the quickstart parallel sum: rt_parfor gang-schedules
// chunk shreds across the OMS and AMSs, each chunk atomically adding its
// partial sum into a shared cell.
func runDemo(cfg core.Config) (*core.Machine, *asm.Program, error) {
	const n = 100_000
	b := shredlib.NewProgram(shredlib.ModeShred, 0)
	b.Label("app_main")
	b.Prolog()
	b.La(1, "body")
	b.Li(2, 0)
	b.Li(3, n)
	b.Li(4, 2500)
	b.Call("rt_parfor")
	b.La(6, "cell")
	b.Ld(0, 6, 0)
	b.Epilog()
	b.Label("body")
	b.Li(6, 0)
	b.Label("loop")
	b.Bge(1, 2, "done")
	b.Add(6, 6, 1)
	b.Addi(1, 1, 1)
	b.Jmp("loop")
	b.Label("done")
	b.La(7, "cell")
	b.Aadd(8, 7, 6)
	b.Ret()
	b.DataU64("cell", 0)
	prog, err := b.Build()
	if err != nil {
		return nil, nil, err
	}

	m, err := core.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	k := kernel.New(m)
	p, err := k.Spawn("parallel-sum", prog)
	if err != nil {
		return nil, nil, err
	}
	if err := m.Run(); err != nil {
		return nil, nil, err
	}
	if err := k.Err(); err != nil {
		return nil, nil, err
	}
	if want := uint64(n) * (n - 1) / 2; p.ExitCode != want {
		return nil, nil, fmt.Errorf("demo checksum mismatch: got %d want %d", p.ExitCode, want)
	}
	return m, prog, nil
}

func runWorkload(name string, mode shredlib.Mode, sizeName string, cfg core.Config) (*core.Machine, *asm.Program, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, nil, err
	}
	size, err := workloads.ParseSize(sizeName)
	if err != nil {
		return nil, nil, err
	}
	res, err := workloads.Run(w, mode, cfg, size)
	if err != nil {
		return nil, nil, err
	}
	if want := w.Ref(size); res.Checksum != want {
		return nil, nil, fmt.Errorf("%s: checksum %g does not match reference %g", name, res.Checksum, want)
	}
	return res.Machine, res.Proc.Prog, nil
}

// validateTrace checks that path parses as Chrome trace-event JSON with
// a non-empty traceEvents array whose records carry the required
// name/ph/pid/tid fields.
func validateTrace(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			PID   *int    `json:"pid"`
			TID   *int    `json:"tid"`
			TS    *uint64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: not valid JSON: %w", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("%s: no traceEvents", path)
	}
	for i, e := range doc.TraceEvents {
		if e.Name == "" || e.Phase == "" || e.PID == nil || e.TID == nil || e.TS == nil {
			return fmt.Errorf("%s: traceEvents[%d] missing a required field", path, i)
		}
	}
	fmt.Printf("%s: valid Chrome trace, %d events\n", path, len(doc.TraceEvents))
	return nil
}

func writeFile(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "misptrace:", err)
	os.Exit(1)
}
