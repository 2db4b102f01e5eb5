// mispserve is the simulation-as-a-service daemon: a long-running
// HTTP/JSON front end that schedules run and sweep requests on a
// bounded job queue with admission control and serves artifacts from a
// content-addressed result cache (a byte-identical request never
// simulates twice). It also embeds a small client for submitting to
// and fetching from a running daemon.
//
// Usage:
//
//	mispserve [-addr :8077] [-queue 64] [-workers N] [-cachedir DIR] [-drain 30s]
//	          [-journal DIR] [-checkpoint-cycles N] [-max-retries N] [-job-timeout D]
//	          [-mem-budget 2g]
//	mispserve submit -app dense_mmm [-size test] [-wait] [-server URL] [flags...]
//	mispserve submit -sweep -exp table1 [-apps a,b] [-wait] [-server URL]
//	mispserve status [-id JOB | -list] [-server URL]
//	mispserve fetch -id JOB -name table1.csv [-o FILE] [-server URL]
//	mispserve -version
//
// With -journal, accepted jobs survive a hard kill: the journal records
// each job's transitions, and -checkpoint-cycles N has a running
// simulation save an image every N cycles (the image file is the
// checkpoint's only record), which a restarted daemon resumes from.
// Each job prepares or resumes its own machine; the daemon keeps no
// machine image between jobs.
//
// With -mem-budget the daemon governs its memory by the measured heap:
// a pressure monitor sheds every fresh admission once the heap reaches
// 70% of the budget, and at 95% it holds the queue and preempts the
// youngest running run instead of letting the host OOM: the run's
// lease is canceled, it saves an image where it stopped (needs
// -journal) and is re-queued to resume from it. Governed jobs also get
// a wall-clock allowance by size.
// /healthz/live and /healthz/ready split liveness from readiness for
// load balancers.
//
// The daemon drains gracefully on SIGINT/SIGTERM: admission closes at
// once, accepted jobs finish (or are cleanly canceled when -drain
// expires), then the process exits. A second signal hard-exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"misp/internal/cli"
	"misp/internal/core"
	"misp/internal/serve"
	"misp/internal/version"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "submit":
			clientSubmit(os.Args[2:])
			return
		case "status":
			clientStatus(os.Args[2:])
			return
		case "fetch":
			clientFetch(os.Args[2:])
			return
		}
	}
	daemon()
}

func daemon() {
	addr := flag.String("addr", ":8077", "listen address (host:port; port 0 picks a free port)")
	queue := flag.Int("queue", 64, "job queue depth (admission control bound)")
	workers := flag.Int("workers", 0, "concurrent jobs (0 = half the host cores)")
	cacheDir := flag.String("cachedir", "", "persist the result cache in this directory (default: memory only)")
	drainTimeout := flag.Duration("drain", 30*time.Second, "graceful-drain budget on SIGINT/SIGTERM before in-flight jobs are canceled")
	journalDir := flag.String("journal", "", "durable job plane: write-ahead journal + checkpoint images in this directory (default: jobs are memory-only)")
	ckptCycles := flag.Uint64("checkpoint-cycles", 0, "checkpoint running simulations every N simulated cycles (0 = only when preempted; needs -journal)")
	maxRetries := flag.Int("max-retries", 0, "execution attempts per job before it fails with a diagnosis (0 = default 3)")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job wall-clock budget from admission (0 = unlimited)")
	memBudget := flag.String("mem-budget", "", "host heap budget enabling resource governance, e.g. 512m or 2g (default: off)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String())
		return
	}
	budget, err := parseBytes(*memBudget)
	if err != nil {
		fatal(err)
	}

	srv, err := serve.NewServer(serve.Config{
		QueueDepth:       *queue,
		Workers:          *workers,
		CacheDir:         *cacheDir,
		JournalDir:       *journalDir,
		CheckpointCycles: *ckptCycles,
		MaxRetries:       *maxRetries,
		JobTimeout:       *jobTimeout,
		MemBudget:        budget,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "mispserve: "+format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// The canonical "where am I listening" line; the smoke script and
	// client tooling parse it, so keep the format stable.
	fmt.Printf("mispserve: listening on %s (%s)\n", ln.Addr(), version.String())

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		fatal(err)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "mispserve: %v: draining (budget %v; signal again to hard-exit)\n", s, *drainTimeout)
	}
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "mispserve: second signal, hard exit")
		os.Exit(130)
	}()

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(drainCtx)
	// Stop accepting connections only after the drain settles so late
	// pollers can still read job status while jobs finish.
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	hs.Shutdown(shutCtx)
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "mispserve: drain incomplete: %v\n", drainErr)
		os.Exit(1)
	}
	fmt.Println("mispserve: drained cleanly")
}

// parseBytes reads a human byte size ("512m", "2g", "1048576"; k/m/g/t
// suffixes are binary). "" means 0 (governance off).
func parseBytes(s string) (uint64, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "" {
		return 0, nil
	}
	shift := 0
	switch s[len(s)-1] {
	case 'k':
		shift, s = 10, s[:len(s)-1]
	case 'm':
		shift, s = 20, s[:len(s)-1]
	case 'g':
		shift, s = 30, s[:len(s)-1]
	case 't':
		shift, s = 40, s[:len(s)-1]
	}
	n, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte size %q (want e.g. 512m, 2g)", s)
	}
	return n << shift, nil
}

// --- client mode ------------------------------------------------------

// newClient builds the CLI's client with its resilience loop: transient
// connect errors and backpressure (429/503) retry with jittered
// exponential backoff, honoring the daemon's Retry-After hint.
func newClient(server string, retries int) *serve.Client {
	cl := serve.NewClient(server)
	cl.MaxAttempts = retries
	return cl
}

func clientSubmit(args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	server := fs.String("server", "http://127.0.0.1:8077", "daemon base URL")
	retries := fs.Int("retries", 3, "attempts for transient errors and backpressure (1 = no retry)")
	sweepKind := fs.Bool("sweep", false, "submit a sweep (evaluation grid) instead of a single run")
	app := fs.String("app", "", "run: workload name")
	apps := fs.String("apps", "", "sweep: comma-separated workload subset")
	expName := fs.String("exp", "", "sweep: eval, fig4, or table1")
	mode := fs.String("mode", "", "run: shred or thread")
	top := fs.String("top", "", "run: topology, comma-separated AMS counts (e.g. 7 or 3,3)")
	size := fs.String("size", "", "problem size: test, small, ref")
	seqs := fs.Int("seqs", 0, "sweep: sequencers per configuration")
	signal := fs.Int64("signal", -1, "signal cost in cycles (-1 = server default)")
	ringPolicy := fs.String("ringpolicy", "", "suspend-all or monitor-cr")
	faultSeed := fs.Uint64("faultseed", 0, "fault injection seed")
	faultPeriod := fs.Uint64("faultperiod", 0, "mean retirements between faults (0 = off)")
	faultKinds := fs.String("faultkinds", "", "comma-separated fault kinds")
	trace := fs.Bool("trace", false, "run: record the Chrome trace artifact")
	parallel := fs.Int("parallel", 0, "sweep: host workers for the fan-out")
	wait := fs.Bool("wait", false, "block until the job completes")
	fs.Parse(args)

	req := serve.Request{
		App:         *app,
		Mode:        *mode,
		Size:        *size,
		RingPolicy:  *ringPolicy,
		FaultSeed:   *faultSeed,
		FaultPeriod: *faultPeriod,
		Trace:       *trace,
		Parallel:    *parallel,
		Seqs:        *seqs,
		Exp:         *expName,
	}
	if *sweepKind {
		req.Kind = serve.KindSweep
	}
	req.Apps = cli.List(*apps)
	req.FaultKinds = cli.List(*faultKinds)
	if *top != "" {
		t, err := core.ParseTopology(*top)
		if err != nil {
			fatal(err)
		}
		req.Topology = t
	}
	if *signal >= 0 {
		sc := uint64(*signal)
		req.SignalCost = &sc
	}

	cl := newClient(*server, *retries)
	view, err := cl.Submit(context.Background(), &req, *wait)
	if err != nil {
		fatal(err)
	}
	printView(view)
}

func clientStatus(args []string) {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	server := fs.String("server", "http://127.0.0.1:8077", "daemon base URL")
	id := fs.String("id", "", "job ID (empty with -list: list all jobs)")
	list := fs.Bool("list", false, "list every job")
	wait := fs.Bool("wait", false, "block until the job completes")
	retries := fs.Int("retries", 3, "attempts for transient errors and backpressure (1 = no retry)")
	fs.Parse(args)

	cl := newClient(*server, *retries)
	if *list || *id == "" {
		views, err := cl.List(context.Background())
		if err != nil {
			fatal(err)
		}
		for _, v := range views {
			fmt.Printf("%-16s %-9s cached=%-5v wall=%dms key=%s\n", v.ID, v.Status, v.Cached, v.WallMS, v.Key[:12])
		}
		return
	}
	view, err := cl.Status(context.Background(), *id, *wait)
	if err != nil {
		fatal(err)
	}
	printView(view)
}

func clientFetch(args []string) {
	fs := flag.NewFlagSet("fetch", flag.ExitOnError)
	server := fs.String("server", "http://127.0.0.1:8077", "daemon base URL")
	id := fs.String("id", "", "job ID")
	name := fs.String("name", "summary.json", "artifact name")
	out := fs.String("o", "", "write to this file instead of stdout")
	retries := fs.Int("retries", 3, "attempts for transient errors and backpressure (1 = no retry)")
	fs.Parse(args)
	if *id == "" {
		fatal(errors.New("fetch needs -id"))
	}

	cl := newClient(*server, *retries)
	data, err := cl.Artifact(context.Background(), *id, *name)
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d bytes)\n", *out, len(data))
}

func printView(v *serve.JobView) {
	fmt.Printf("job      %s\n", v.ID)
	fmt.Printf("status   %s", v.Status)
	if v.Cached {
		fmt.Print("  [cache hit]")
	}
	if v.Recovered {
		fmt.Print("  [recovered]")
	}
	if v.Preempted {
		fmt.Print("  [preempted]")
	}
	fmt.Println()
	if v.Preempts > 0 {
		fmt.Printf("preempts %d\n", v.Preempts)
	}
	fmt.Printf("key      %s\n", v.Key)
	if v.Error != "" {
		fmt.Printf("error    %s\n", v.Error)
	}
	if v.Failure != "" {
		fmt.Printf("failure  %s\n", v.Failure)
	}
	if v.Attempts > 1 {
		fmt.Printf("attempts %d\n", v.Attempts)
	}
	if v.Checkpoint > 0 {
		fmt.Printf("ckpt     cycle %d\n", v.Checkpoint)
	}
	if v.Result != nil {
		if v.Result.Cycles > 0 {
			fmt.Printf("cycles   %d\n", v.Result.Cycles)
			fmt.Printf("instrs   %d\n", v.Result.Instrs)
			fmt.Printf("checksum %g  ok=%v\n", v.Result.Checksum, v.Result.ChecksumOK)
		}
		if v.Result.Apps > 0 {
			fmt.Printf("apps     %d\n", v.Result.Apps)
		}
	}
	if len(v.Artifacts) > 0 {
		fmt.Printf("artifacts %s\n", strings.Join(v.Artifacts, " "))
	}
	if v.WallMS > 0 {
		fmt.Printf("wall     %dms\n", v.WallMS)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mispserve:", err)
	os.Exit(1)
}
