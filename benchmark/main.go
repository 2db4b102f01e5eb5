//go:build linux

// Command benchmark is the repository's one benchmark: four workloads
// that each lean on a different layer, five end-to-end metrics measured
// with tracing off, and a traced in-process replay that prices every
// layer from outside through its public functions. See README.md.
//
//	go run ./benchmark                                  # all workloads, end to end
//	go run ./benchmark -workload sim_ref -trace 1       # one workload, per layer
//	go run ./benchmark -repeat 2                        # repeatability report
//
// With a single -workload the last line of standard output is the JSON
// object BENCHMARK.json's contract describes.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"misp/internal/serve"
	"misp/internal/workloads"
)

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	size    string // "" = each workload's own size; set only by the smoke
	// appLimit, when > 0, restricts every workload to the first N apps.
	// No flag sets it: only the self-test smoke does, to stay fast.
	appLimit int

	root   string // module root (the checkout)
	outDir string // benchmark/out: everything the harness writes
	nproc  int
}

// sizeOr returns the -size override, or the workload's own size def.
func (c *config) sizeOr(def workloads.Size) workloads.Size {
	if sz, err := serve.ParseSize(c.size); err == nil {
		return sz
	}
	return def
}

// round is one stretch of a run's timed window. Every round of a run
// does the same mix of work (a pass over the apps, a block of one
// request per app, a fixed count of cache hits), so per-round rates are
// comparable and their median shrugs off a burst of host noise that a
// whole-window mean would absorb.
type round struct {
	wall   time.Duration // op clock
	cpu    time.Duration // user+sys of the measured process
	ops    int           // ops completed OK
	units  float64       // ops_per_s numerator (grid points for eval_sweep)
	instrs uint64        // simulated instructions of results delivered OK
}

// e2eRun is what one untraced run of a workload measured.
type e2eRun struct {
	setup     time.Duration
	rounds    []round
	lat       []time.Duration // one sample per op that completed OK
	attempted int
	failed    int
	errs      []string           // first few failures, for the report
	unitName  string             // what ops_per_s counts
	layer     map[string]float64 // layer numbers only the untraced run can give
	info      map[string]any     // provenance: sizes, op counts, daemon flags
}

func newE2E(unit string) *e2eRun {
	return &e2eRun{unitName: unit, layer: make(map[string]float64), info: make(map[string]any)}
}

func (e *e2eRun) fail(err error) {
	e.failed++
	if len(e.errs) < 5 {
		e.errs = append(e.errs, err.Error())
	}
}

// wall is the timed window so far: the sum of the rounds' op clocks.
func (e *e2eRun) wall() time.Duration {
	var d time.Duration
	for _, r := range e.rounds {
		d += r.wall
	}
	return d
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// workload is one named set of inputs.
type workload struct {
	name string
	// run measures the workload end to end, untraced, for about window
	// of op-clock time; dir is a scratch directory it owns.
	run func(ctx context.Context, cfg *config, dir string, window time.Duration) (*e2eRun, error)
	// replay walks a fixed prefix of the same op list through the
	// layers' public functions with a span around each call.
	replay func(ctx context.Context, cfg *config, dir string, e *e2eRun) (*replay, error)
}

var allWorkloads = []workload{
	{"sim_ref", runSimRef, replaySimRef},
	{"eval_sweep", runEvalSweep, replayEvalSweep},
	{"serve_miss", runServeMiss, replayServeMiss},
	{"serve_reuse", runServeReuse, replayServeReuse},
}

// endToEnd names the five end-to-end metrics, in report order.
var endToEnd = []string{"setup_s", "ops_per_s", "op_p50_ms", "sim_minstr_per_s", "cpu_ms_per_op"}

// perLayer names every per-layer metric with its unit. A workload that
// never enters a layer reports 0 for it: that is the "predicted flat"
// column of the README's interaction table, measured.
var perLayer = []struct{ name, unit string }{
	{"core.run_ms", "ms"}, {"core.ns_per_instr", "ns"}, {"core.allocs_per_run", "count"},
	{"core.instrs", "count"}, {"core.cycles", "count"},
	{"core.sb_builds", "count"}, {"core.sb_invalidates", "count"}, {"core.sb_block_runs", "count"},
	{"core.instrs_per_block_run", "count"},
	{"mem.tlb_hits", "count"}, {"mem.tlb_misses", "count"}, {"mem.tlb_perm_misses", "count"},
	{"kernel.syscalls", "count"}, {"kernel.page_faults", "count"}, {"kernel.switches", "count"},
	{"kernel.ticks", "count"}, {"kernel.ipis", "count"},
	{"workloads.build_ms", "ms"}, {"workloads.prepare_ms", "ms"}, {"workloads.warm_hit_share", "share"},
	{"snap.capture_ms", "ms"}, {"snap.fork_ms", "ms"}, {"snap.image_kb", "KiB"},
	{"snap.savefile_ms", "ms"}, {"snap.loadfile_ms", "ms"},
	{"sweep.utilization", "share"}, {"sweep.workers", "count"},
	{"exp.evaluate_self_ms", "ms"},
	{"journal.append_ms", "ms"}, {"journal.open_replay_ms", "ms"}, {"journal.appends_per_job", "count"},
	{"serve.canon_key_us", "us"}, {"serve.cache_get_mem_us", "us"}, {"serve.cache_get_disk_ms", "ms"},
	{"serve.cache_put_ms", "ms"}, {"serve.cache_hit_share", "share"}, {"serve.artifact_bytes_per_op", "B"},
	{"serve.execute_ms", "ms"}, {"serve.artifacts_encode_ms", "ms"}, {"serve.queue_wait_ms", "ms"},
	{"serve.http_overhead_us", "us"}, {"serve.daemon_ready_ms", "ms"},
	{"serve.jobs_retried", "count"}, {"serve.jobs_preempted", "count"}, {"serve.rejected", "count"},
	{"client.op_hi_ms", "ms"}, {"client.unexplained_share", "share"},
	{"host.peak_rss_mb", "MiB"}, {"host.alloc_mb_per_op", "MiB"},
}

// result is one workload's report.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Info      map[string]any    `json:"info"`
}

// e2eMetrics turns a run into the five end-to-end metrics: the rates
// are medians over the run's rounds, the latency a median over its ops.
func e2eMetrics(e *e2eRun) map[string]metric {
	var rate, minstr, cpu []float64
	for _, r := range e.rounds {
		rate = append(rate, r.units/r.wall.Seconds())
		minstr = append(minstr, float64(r.instrs)/1e6/r.wall.Seconds())
		cpu = append(cpu, perOp(ms(r.cpu), r.ops))
	}
	return map[string]metric{
		"setup_s":          {Value: e.setup.Seconds(), Unit: "s"},
		"ops_per_s":        {Value: median(rate), Unit: "op/s", Samples: len(rate), Note: "counts " + e.unitName + "s"},
		"op_p50_ms":        {Value: medianMS(e.lat), Unit: "ms", Samples: len(e.lat)},
		"sim_minstr_per_s": {Value: median(minstr), Unit: "Minstr/s", Samples: len(rate)},
		"cpu_ms_per_op":    {Value: median(cpu), Unit: "ms", Samples: len(rate)},
	}
}

// layerMetrics merges the untraced run's layer numbers with the traced
// replay's spans and counters into the full per-layer set.
func layerMetrics(e *e2eRun, rp *replay) map[string]metric {
	self := selfByName(rp.rec.spans)
	v := make(map[string]float64)
	samples := make(map[string]int)
	med := func(metric, span string, scale func(time.Duration) float64) {
		ds := self[span]
		vals := make([]float64, len(ds))
		for i, d := range ds {
			vals[i] = scale(d)
		}
		v[metric], samples[metric] = median(vals), len(vals)
	}
	med("core.run_ms", "core.run", ms)
	med("workloads.build_ms", "workloads.build", ms)
	med("workloads.prepare_ms", "workloads.prepare", ms)
	med("snap.capture_ms", "snap.capture", ms)
	med("snap.fork_ms", "snap.fork", ms)
	med("snap.savefile_ms", "snap.savefile", ms)
	med("snap.loadfile_ms", "snap.loadfile", ms)
	med("journal.append_ms", "journal.append", ms)
	med("journal.open_replay_ms", "journal.open_replay", ms)
	med("serve.canon_key_us", "serve.canon_key", us)
	med("serve.cache_get_mem_us", "serve.cache_get_mem", us)
	med("serve.cache_get_disk_ms", "serve.cache_get_disk", ms)
	med("serve.cache_put_ms", "serve.cache_put", ms)
	med("serve.execute_ms", "serve.execute", ms)

	var runTotal time.Duration
	for _, d := range self["core.run"] {
		runTotal += d
	}
	v["core.ns_per_instr"] = perOp(float64(runTotal.Nanoseconds()), int(rp.instrs))
	v["core.allocs_per_run"], samples["core.allocs_per_run"] = median(rp.allocs), len(rp.allocs)
	v["core.instrs"], v["core.cycles"] = float64(rp.instrs), float64(rp.cycles)
	v["core.sb_builds"], v["core.sb_invalidates"] = float64(rp.sbBuilds), float64(rp.sbInvalidates)
	v["core.sb_block_runs"] = float64(rp.sbBlockRuns)
	v["core.instrs_per_block_run"] = perOp(float64(rp.instrs), int(rp.sbBlockRuns))
	v["mem.tlb_hits"], v["mem.tlb_misses"] = float64(rp.tlbHits), float64(rp.tlbMisses)
	v["mem.tlb_perm_misses"] = float64(rp.tlbPermMisses)
	for i, name := range []string{"kernel.syscalls", "kernel.page_faults", "kernel.switches", "kernel.ticks", "kernel.ipis"} {
		v[name] = float64(rp.kernel[i])
	}
	v["snap.image_kb"], samples["snap.image_kb"] = median(rp.imageKB), len(rp.imageKB)
	v["serve.artifacts_encode_ms"], samples["serve.artifacts_encode_ms"] = medianMS(rp.encode), len(rp.encode)

	lat := make([]float64, len(e.lat))
	for i, d := range e.lat {
		lat[i] = ms(d)
	}
	p, hi := highTail(lat)
	v["client.op_hi_ms"], samples["client.op_hi_ms"] = hi, len(lat)
	if p50 := median(lat); p50 > 0 {
		v["client.unexplained_share"] = (p50 - medianMS(rp.explained)) / p50
	}
	if _, ok := e.layer["host.peak_rss_mb"]; !ok {
		v["host.peak_rss_mb"] = peakRSSMB(os.Getpid())
	}
	for name, val := range e.layer { // the untraced run's numbers
		v[name] = val
	}
	for name, val := range rp.values { // the replay's computed numbers
		v[name] = val
	}

	out := make(map[string]metric, len(perLayer))
	for _, pl := range perLayer {
		out[pl.name] = metric{Value: v[pl.name], Unit: pl.unit, Samples: samples[pl.name]}
	}
	m := out["client.op_hi_ms"]
	m.Note = fmt.Sprintf("p%g", p)
	out["client.op_hi_ms"] = m
	return out
}

// runWorkload runs one workload: untraced for the whole window, or —
// with -trace — untraced for half of it and then the traced replay.
func runWorkload(ctx context.Context, cfg *config, w workload) (*result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	window := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		window /= 2
	}
	e, err := w.run(ctx, cfg, dir, window)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if len(e.lat) == 0 {
		return nil, fmt.Errorf("%s: no op completed: %s", w.name, strings.Join(e.errs, "; "))
	}
	res := &result{
		Workload: w.name, Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed,
		Errors: e.errs, EndToEnd: e2eMetrics(e), Info: e.info,
	}
	res.Info["timed_wall_s"] = e.wall().Seconds()
	res.Info["rounds"] = len(e.rounds)
	if !cfg.trace {
		return res, nil
	}
	rp, err := w.replay(ctx, cfg, dir, e)
	if err != nil {
		return nil, fmt.Errorf("%s traced replay: %w", w.name, err)
	}
	res.PerLayer = layerMetrics(e, rp)
	res.Info["replay_ops"] = len(rp.explained)
	res.Info["replay_op_p50_ms"] = medianMS(rp.explained)
	path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
	if err := writeChromeTrace(path, rp.rec.spans); err != nil {
		return nil, err
	}
	res.Info["trace_file"] = path
	return res, nil
}

// environment records where the numbers were taken.
func environment(cfg *config) map[string]any {
	env := map[string]any{
		"nproc": cfg.nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"cpu_model": "unknown", "kernel": "unknown", "commit": "unknown",
	}
	if cfg.size != "" {
		env["size_override"] = cfg.size
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu_model"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(b))
	}
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = cfg.root
	if b, err := cmd.Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(b))
	}
	return env
}

// findRoot walks up from the working directory to the module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module misp\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: run from inside the misp module (go.mod not found)")
		}
		dir = parent
	}
}

func newConfig() (*config, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	return &config{
		seed: 1, seconds: 15, root: root,
		outDir: filepath.Join(root, "benchmark", "out"),
		nproc:  runtime.NumCPU(),
	}, nil
}

func printResult(res *result) {
	fmt.Printf("== %s: %d ops attempted, %d failed\n", res.Workload, res.Attempted, res.Failed)
	for _, msg := range res.Errors {
		fmt.Printf("   FAILED: %s\n", msg)
	}
	for _, name := range endToEnd {
		fmt.Printf("   %-28s %s\n", name, res.EndToEnd[name])
	}
	if res.PerLayer != nil {
		for _, pl := range perLayer {
			fmt.Printf("   %-28s %s\n", pl.name, res.PerLayer[pl.name])
		}
		fmt.Printf("   traced replay op p50 %.4g ms beside untraced %.4g ms (%d replayed ops); trace: %s\n",
			res.Info["replay_op_p50_ms"], res.EndToEnd["op_p50_ms"].Value, res.Info["replay_ops"], res.Info["trace_file"])
	}
	keys := make([]string, 0, len(res.Info))
	for k := range res.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%v", k, res.Info[k]))
	}
	fmt.Printf("   info: %s\n", strings.Join(parts, " "))
}

// contractLine renders the driver's result object: the end-to-end
// metrics untraced, the per-layer metrics traced.
func contractLine(res *result, trace bool) string {
	type cm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := res.EndToEnd
	if trace {
		src = res.PerLayer
	}
	metrics := make(map[string]cm, len(src))
	for name, m := range src {
		metrics[name] = cm{m.Value, m.Unit}
	}
	b, _ := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	return string(b)
}

func finite(m map[string]metric) error {
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not finite", name)
		}
	}
	return nil
}

func main() {
	os.Exit(run())
}

func run() int {
	cfg, err := newConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	which := flag.String("workload", "all", "workload to run: all, sim_ref, eval_sweep, serve_miss, serve_reuse")
	flag.Uint64Var(&cfg.seed, "seed", cfg.seed, "seed for op order and request streams")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "timed window per workload, seconds of op clock")
	trace := flag.Int("trace", 0, "1 = untraced half-window, then the traced replay that gives the per-layer metrics")
	flag.StringVar(&cfg.size, "size", "", "problem size override (test|small|ref) for smoke runs; recorded, never for reported numbers")
	repeat := flag.Int("repeat", 0, "run N full sets and report each end-to-end metric's spread against its bound")
	flag.Parse()
	cfg.trace = *trace != 0
	if cfg.seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and there are no positional arguments")
		return 2
	}
	if _, err := serve.ParseSize(cfg.size); cfg.size != "" && err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if cfg.nproc < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: warning: nproc < 2; load clients and the measured process will share one core")
	}
	var selected []workload
	for _, w := range allWorkloads {
		if *which == "all" || *which == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *which)
		return 2
	}

	// First SIGINT/SIGTERM cancels the run; deferred stops then drain and
	// reap any daemon and remove the scratch directories.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *repeat > 0 {
		return repeatSets(ctx, cfg, selected, *repeat)
	}

	env := environment(cfg)
	fmt.Printf("benchmark: %v\n", env)
	var results []*result
	code := 0
	for _, w := range selected {
		res, err := runWorkload(ctx, cfg, w)
		if err == nil {
			err = finite(res.EndToEnd)
		}
		if err == nil {
			err = finite(res.PerLayer)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		printResult(res)
		results = append(results, res)
		if !res.Correct {
			code = 1
		}
	}
	doc, _ := json.MarshalIndent(map[string]any{"environment": env, "results": results}, "", "  ")
	if err := os.WriteFile(filepath.Join(cfg.outDir, "latest.json"), append(doc, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if len(results) == 1 {
		fmt.Println(contractLine(results[0], cfg.trace))
	}
	return code
}
