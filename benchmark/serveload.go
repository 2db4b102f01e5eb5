//go:build linux

package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"time"

	"misp/internal/core"
	"misp/internal/journal"
	"misp/internal/serve"
	"misp/internal/shredlib"
	"misp/internal/snap"
	"misp/internal/workloads"
)

const (
	serveClients = 2                // closed-loop clients, capped at nproc
	opTimeout    = 60 * time.Second // an op still pending counts as failed
	sampleChecks = 2                // serve_miss ops re-executed in process
)

// opResult is one submit → artifacts-in-hand round trip.
type opResult struct {
	view    *serve.JobView
	digests map[string][sha256.Size]byte
	bytes   int
	latency time.Duration
	fetch   time.Duration // part of latency spent fetching artifacts
}

// doOp is the op of both serve workloads: POST /v1/jobs?wait=1, then
// GET every artifact the job lists.
func doOp(ctx context.Context, cl *serve.Client, req *serve.Request) (*opResult, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	t0 := time.Now()
	v, err := cl.Submit(ctx, req, true)
	if err != nil {
		return nil, err
	}
	if v.Status != serve.StatusDone {
		return nil, fmt.Errorf("job %s ended %s: %s", v.ID, v.Status, v.Error)
	}
	out := &opResult{view: v, digests: make(map[string][sha256.Size]byte, len(v.Artifacts))}
	tf := time.Now()
	for _, name := range v.Artifacts {
		data, err := cl.Artifact(ctx, v.ID, name)
		if err != nil {
			return nil, fmt.Errorf("job %s artifact %s: %w", v.ID, name, err)
		}
		out.digests[name] = sha256.Sum256(data)
		out.bytes += len(data)
	}
	now := time.Now()
	out.latency, out.fetch = now.Sub(t0), now.Sub(tf)
	if len(v.Artifacts) == 0 || v.Result == nil {
		return nil, fmt.Errorf("job %s is done but lists no artifacts or result", v.ID)
	}
	return out, nil
}

// checkView validates a run job's result against the workload's Go
// reference.
func checkView(req *serve.Request, v *serve.JobView) error {
	w, err := workloads.ByName(req.App)
	if err != nil {
		return err
	}
	size, err := serve.ParseSize(req.Size)
	if err != nil {
		return err
	}
	if !checksumOK(v.Result.Checksum, w.Ref(size)) {
		return fmt.Errorf("%s: checksum %g does not match reference %g", req.App, v.Result.Checksum, w.Ref(size))
	}
	return nil
}

// closedLoop drives the daemon with serveClients clients, each issuing
// its next op when the previous one returns. next hands out op indices
// until it reports false; check classifies a completed op and returns
// the simulated instructions its result delivers. Every
// roundOps completions close a round on e (a trailing partial round is
// kept only when it is the run's only one). It returns the completed
// ops, index-aligned with what next issued; nil marks a failed op.
func closedLoop(ctx context.Context, cfg *config, d *daemon, e *e2eRun, roundOps int,
	next func() (int, *serve.Request, bool), check func(i int, req *serve.Request, r *opResult) (uint64, error)) ([]*opResult, error) {
	var (
		mu        sync.Mutex
		ops       []*opResult
		rd        round
		completed int
		fatal     error
	)
	mark := time.Now()
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	closeRound := func() { // with mu held
		now := time.Now()
		cpu, err := d.cpu()
		if err != nil {
			fatal = err
		}
		rd.wall, rd.cpu = now.Sub(mark), cpu-cpu0
		e.rounds = append(e.rounds, rd)
		rd, mark, cpu0 = round{}, now, cpu
	}
	var wg sync.WaitGroup
	for c := 0; c < min(serveClients, cfg.nproc); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := serve.NewClient(d.base)
			for ctx.Err() == nil {
				mu.Lock()
				i, req, ok := next()
				mu.Unlock()
				if !ok {
					return
				}
				var instrs uint64
				r, err := doOp(ctx, cl, req)
				if err == nil {
					instrs, err = check(i, req, r)
				}
				mu.Lock()
				e.attempted++
				for len(ops) <= i {
					ops = append(ops, nil)
				}
				if err != nil {
					e.fail(fmt.Errorf("op %d (%s %s %v): %w", i, req.App, req.Mode, req.Topology, err))
				} else {
					ops[i] = r
					e.lat = append(e.lat, r.latency)
					rd.ops++
					rd.units++
					rd.instrs += instrs
				}
				if completed++; completed%roundOps == 0 {
					closeRound()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if completed%roundOps != 0 && len(e.rounds) == 0 {
		closeRound()
	}
	if fatal != nil {
		return nil, fatal
	}
	return ops, ctx.Err()
}

// serveLayers derives the layer numbers only a real daemon run can
// give: its /metrics counters and the client-side latency split.
func serveLayers(e *e2eRun, d *daemon, ops []*opResult, ctr map[string]uint64) {
	var waits []float64
	var bytes int
	for _, r := range ops {
		if r == nil {
			continue
		}
		bytes += r.bytes
		if !r.view.Cached {
			// What the client waited beyond the job's own run and its own
			// fetches: queueing behind the other client, journal and cache
			// writes, HTTP. wall_ms has millisecond resolution.
			waits = append(waits, max(0, ms(r.latency-r.fetch)-float64(r.view.WallMS)))
		}
	}
	e.layer["serve.queue_wait_ms"] = median(waits)
	e.layer["serve.artifact_bytes_per_op"] = perOp(float64(bytes), len(e.lat))
	e.layer["serve.cache_hit_share"] = share(ctr["serve.cache.hits"], ctr["serve.cache.misses"])
	e.layer["journal.appends_per_job"] = perOp(float64(ctr["serve.journal.appends"]), int(ctr["serve.jobs.completed"]))
	e.layer["serve.daemon_ready_ms"] = ms(d.ready)
	e.layer["serve.jobs_retried"] = float64(ctr["serve.jobs.retries"])
	e.layer["serve.jobs_preempted"] = float64(ctr["serve.jobs.preempted"])
	e.layer["serve.rejected"] = float64(ctr["serve.rejected.queue_full"] + ctr["serve.rejected.draining"] + ctr["serve.rejected.over_budget"])
	e.layer["host.peak_rss_mb"] = peakRSSMB(d.cmd.Process.Pid)
	if n := e.layer["serve.jobs_retried"] + e.layer["serve.jobs_preempted"] + e.layer["serve.rejected"]; n != 0 {
		e.fail(fmt.Errorf("daemon retried, preempted or rejected %v jobs; the workload must run clean", n))
	}
}

// daemonBinary builds mispserve and records the build and the measured
// daemon's flags on e.
func daemonBinary(ctx context.Context, cfg *config, dir string, e *e2eRun) (bin string, flags []string, err error) {
	bin, buildTime, err := buildDaemon(ctx, cfg.root, cfg.outDir)
	if err != nil {
		return "", nil, err
	}
	flags = daemonFlags(dir)
	e.info["daemon_build_s"] = buildTime.Seconds()
	e.info["daemon_flags"] = flags
	e.info["clients"] = min(serveClients, cfg.nproc)
	return bin, flags, nil
}

func digestsOf(art serve.Artifacts) map[string][sha256.Size]byte {
	out := make(map[string][sha256.Size]byte, len(art))
	for name, data := range art {
		out[name] = sha256.Sum256(data)
	}
	return out
}

// ---- serve_miss ------------------------------------------------------

// runServeMiss issues never-repeated run requests against a fresh
// daemon: every op is a cache miss that simulates, checkpoints,
// journals and writes the cache through to disk.
func runServeMiss(ctx context.Context, cfg *config, dir string, window time.Duration) (*e2eRun, error) {
	size := cfg.sizeOr(workloads.SizeSmall).String()
	apps := evaluatedApps(cfg.appLimit)
	stream := missStream(cfg.seed, apps, size)
	e := newE2E("op")
	e.info["size"] = size
	e.info["key_space"] = len(stream)
	bin, flags, err := daemonBinary(ctx, cfg, dir, e)
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	d, err := startDaemon(ctx, bin, flags)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	cl := serve.NewClient(d.base)
	for _, req := range warmupRequests(apps, size) {
		r, err := doOp(ctx, cl, &req)
		if err == nil {
			err = checkView(&req, r.view)
		}
		if err != nil {
			return nil, fmt.Errorf("serve_miss warm-up %s: %w", req.App, err)
		}
	}
	e.setup = time.Since(t0)

	// The run ends on a block boundary once the window has passed, so
	// every run measures the same mix; a block is also a round.
	start, block, issued := time.Now(), missBlockOps(len(apps)), 0
	next := func() (int, *serve.Request, bool) {
		if issued == len(stream) || (issued%block == 0 && time.Since(start) >= window) {
			return 0, nil, false
		}
		issued++
		return issued - 1, &stream[issued-1], true
	}
	check := func(_ int, req *serve.Request, r *opResult) (uint64, error) {
		if r.view.Cached {
			return 0, errors.New("served from cache; serve_miss keys must never repeat")
		}
		return r.view.Result.Instrs, checkView(req, r.view)
	}
	ops, err := closedLoop(ctx, cfg, d, e, block, next, check)
	if err != nil {
		return nil, err
	}
	ctr, err := d.counters(ctx)
	if err != nil {
		return nil, err
	}
	serveLayers(e, d, ops, ctr)
	if err := d.stop(); err != nil {
		return nil, err
	}

	// Byte identity: a sample of the ops, re-executed in process, must
	// produce exactly the artifacts the daemon served.
	r := newRand(cfg.seed, streamSample)
	for n := 0; n < sampleChecks; n++ {
		i := r.IntN(len(ops))
		if ops[i] == nil {
			continue
		}
		c, err := stream[i].Canonicalize()
		if err != nil {
			return nil, err
		}
		art, _, err := serve.Execute(ctx, c)
		if err != nil {
			return nil, err
		}
		if !maps.Equal(digestsOf(art), ops[i].digests) {
			e.fail(fmt.Errorf("op %d (%s): artifacts differ from in-process serve.Execute", i, c.App))
		}
	}
	return e, nil
}

// ---- serve_reuse -----------------------------------------------------

// runServeReuse re-requests a populated working set from a restarted
// daemon: memory cache cold, disk cache and journal warm. Every op must
// be a cache hit whose bytes equal what the populate pass was served.
func runServeReuse(ctx context.Context, cfg *config, dir string, window time.Duration) (*e2eRun, error) {
	size := cfg.sizeOr(workloads.SizeSmall).String()
	keys := reuseKeys(evaluatedApps(cfg.appLimit), size)
	stream := reuseStream(cfg.seed, len(keys), reuseStreamLen)
	e := newE2E("op")
	e.info["size"] = size
	e.info["keys"] = len(keys)
	bin, flags, err := daemonBinary(ctx, cfg, dir, e)
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	populated, err := populate(ctx, cfg, bin, flags, keys)
	if err != nil {
		return nil, fmt.Errorf("serve_reuse populate: %w", err)
	}
	d, err := startDaemon(ctx, bin, flags)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	e.setup = time.Since(t0)

	start, issued := time.Now(), 0
	next := func() (int, *serve.Request, bool) {
		if time.Since(start) >= window {
			return 0, nil, false
		}
		issued++
		return issued - 1, &keys[stream[(issued-1)%len(stream)]], true
	}
	// A cached job view carries no result figures; the artifacts do. Once
	// they are byte-identical to the populate pass's, the op delivers the
	// instructions that pass's result reported.
	check := func(i int, _ *serve.Request, r *opResult) (uint64, error) {
		want := populated[stream[i%len(stream)]]
		if !r.view.Cached {
			return 0, errors.New("not served from cache")
		}
		if !maps.Equal(r.digests, want.digests) {
			return 0, errors.New("artifacts differ from the populate pass's")
		}
		return want.view.Result.Instrs, nil
	}
	ops, err := closedLoop(ctx, cfg, d, e, reuseRoundOps, next, check)
	if err != nil {
		return nil, err
	}
	ctr, err := d.counters(ctx)
	if err != nil {
		return nil, err
	}
	serveLayers(e, d, ops, ctr)
	return e, d.stop()
}

// populate runs every key once on a first daemon and SIGTERM-drains
// it, leaving the disk cache and journal for the measured daemon.
func populate(ctx context.Context, cfg *config, bin string, flags []string, keys []serve.Request) ([]*opResult, error) {
	d, err := startDaemon(ctx, bin, flags)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	var pop e2eRun
	var nextKey int
	populated, err := closedLoop(ctx, cfg, d, &pop, len(keys),
		func() (int, *serve.Request, bool) {
			if nextKey == len(keys) {
				return 0, nil, false
			}
			nextKey++
			return nextKey - 1, &keys[nextKey-1], true
		},
		func(_ int, req *serve.Request, r *opResult) (uint64, error) { return 0, checkView(req, r.view) })
	if err != nil {
		return nil, err
	}
	if pop.failed > 0 {
		return nil, errors.New(pop.errs[0])
	}
	return populated, d.stop()
}

// ---- traced replays --------------------------------------------------

// canonKey is the daemon's first step on every submit, in one span.
func (rp *replay) canonKey(parent, op int, req *serve.Request) (*serve.Request, string, error) {
	s := rp.rec.begin("serve.canon_key", parent, op)
	defer rp.rec.end(s)
	c, err := req.Canonicalize()
	if err != nil {
		return nil, "", err
	}
	return c, c.Key(), nil
}

// warmImages is the replay's own warm pool, decomposed so each of the
// pool's possible costs gets a span: coldPrepare on a miss, Fork on a
// hit. The key mirrors workloads.WarmPool's for
// the requests the harness generates.
type warmImages map[string]*snap.Snapshot

func (wi warmImages) prepare(rp *replay, parent, op int, c *serve.Request, w *workloads.Workload, mode shredlib.Mode, mcfg core.Config, size workloads.Size) (*workloads.Prepared, error) {
	key := fmt.Sprintf("%s|%s|%v|%d|%t", c.App, c.Mode, c.Topology, *c.SignalCost, c.Trace)
	if img := wi[key]; img != nil {
		s := rp.rec.begin("snap.fork", parent, op)
		m, k, err := img.Fork(func(cc *core.Config) { *cc = mcfg })
		rp.rec.end(s)
		if err != nil {
			return nil, err
		}
		return workloads.Resume(w, mode, m, k)
	}
	pr, img, err := rp.coldPrepare(parent, op, w, mode, mcfg, size)
	if err != nil {
		return nil, err
	}
	wi[key] = img
	return pr, nil
}

// requestConfig builds the machine configuration the daemon would for a
// canonical request the harness generated (no fault plane, no ablation
// knobs).
func requestConfig(c *serve.Request) (shredlib.Mode, core.Config) {
	mcfg := workloads.DefaultConfig(core.Topology(c.Topology))
	mcfg.SignalCost = *c.SignalCost
	if c.RingPolicy == core.RingMonitorCR.String() {
		mcfg.RingPolicy = core.RingMonitorCR
	}
	mcfg.TraceEvents = c.Trace
	if c.Mode == "thread" {
		return shredlib.ModeThread, mcfg
	}
	return shredlib.ModeShred, mcfg
}

const (
	// checkpointCycles is the daemon's -checkpoint-cycles.
	checkpointCycles = 1_000_000
)

// replayServeMiss walks the first block of the miss stream through the
// layers' public functions in the daemon's order, in process. A fixed
// op list makes its counters exact.
func replayServeMiss(ctx context.Context, cfg *config, dir string, _ *e2eRun) (*replay, error) {
	size := cfg.sizeOr(workloads.SizeSmall)
	apps := evaluatedApps(cfg.appLimit)
	stream := missStream(cfg.seed, apps, size.String())[:missBlockOps(len(apps))]
	rp := newReplay()

	rdir := filepath.Join(dir, "replay")
	ckpt := filepath.Join(rdir, "replay.misp")
	cache, err := serve.NewCache(filepath.Join(rdir, "cache"))
	if err != nil {
		return nil, err
	}
	jnl, _, err := journal.Open(filepath.Join(rdir, "journal.wal"))
	if err != nil {
		return nil, err
	}
	defer jnl.Close()
	images := warmImages{}
	// ExecuteCheckpointed gets a pool of its own that sees the same key
	// sequence, so it forks exactly when the decomposed path does.
	pool := workloads.NewWarmPool()
	spec := &serve.CheckpointSpec{Dir: rdir, Every: checkpointCycles}

	// appendRec journals a record shaped like the daemon's (op, job id,
	// key, canonical request: about 300 bytes), fsync on.
	appendRec := func(parent, n int, op string, c *serve.Request) (time.Duration, error) {
		payload, err := json.Marshal(map[string]any{"op": op, "id": fmt.Sprintf("j%06d", n), "key": c.Key(), "req": c})
		if err != nil {
			return 0, err
		}
		s := rp.rec.begin("journal.append", parent, n)
		err = jnl.Append(payload)
		return rp.rec.end(s), err
	}

	for n := range stream {
		req := &stream[n]
		tOp := time.Now()
		root := rp.rec.begin("op:"+req.App, -1, n)
		c, key, err := rp.canonKey(root, n, req)
		if err != nil {
			return nil, err
		}
		s := rp.rec.begin("serve.cache_get_miss", root, n)
		_, hit := cache.Get(key)
		rp.rec.end(s)
		if hit {
			return nil, fmt.Errorf("replay op %d: unexpected cache hit", n)
		}
		for _, op := range []string{"accepted", "started"} {
			if _, err := appendRec(root, n, op, c); err != nil {
				return nil, err
			}
		}

		w, err := workloads.ByName(c.App)
		if err != nil {
			return nil, err
		}
		tWork := time.Now()
		mode, mcfg := requestConfig(c)
		pr, err := images.prepare(rp, root, n, c, w, mode, mcfg, size)
		if err != nil {
			return nil, err
		}
		// The run proceeds in checkpoint slices as ExecuteCheckpointed's
		// does: pause every checkpointCycles, capture, save, journal.
		run := rp.rec.begin("core.run", root, n)
		var ckptAppends time.Duration
		saved := false
		var res *workloads.RunResult
		for {
			pr.Machine.SetPause(pr.Machine.MaxClock() + checkpointCycles)
			if res, err = pr.RunCtx(ctx); err == nil {
				break
			}
			if !errors.Is(err, core.ErrPaused) {
				return nil, err
			}
			s = rp.rec.begin("snap.capture", run, n)
			img, err := snap.Capture(pr.Machine, pr.Kernel)
			rp.rec.end(s)
			if err != nil {
				return nil, err
			}
			s = rp.rec.begin("snap.savefile", run, n)
			err = img.SaveFile(ckpt)
			rp.rec.end(s)
			if err != nil {
				return nil, err
			}
			saved = true
			d, err := appendRec(run, n, "checkpoint", c)
			if err != nil {
				return nil, err
			}
			ckptAppends += d
		}
		pr.Machine.SetPause(0)
		rp.rec.end(run)
		work, soFar := time.Since(tWork), time.Since(tOp)
		if err := checkRun(w, size, res, new(identity)); err != nil {
			return nil, err
		}
		rp.addMachine(res)

		// Artifact encoding is private to serve. ExecuteCheckpointed does
		// the prepare/run/checkpoint work above again (without the
		// checkpoint journal records) and then encodes, so what it takes
		// beyond that work is the encode.
		s = rp.rec.begin("serve.execute", root, n)
		art, _, err := serve.ExecuteCheckpointed(ctx, c, pool, spec)
		exec := rp.rec.end(s)
		if err != nil {
			return nil, err
		}
		encode := max(0, exec-(work-ckptAppends))
		rp.encode = append(rp.encode, encode)

		s = rp.rec.begin("serve.cache_put", root, n)
		err = cache.Put(key, art)
		put := rp.rec.end(s)
		if err != nil {
			return nil, err
		}
		done, err := appendRec(root, n, "done", c)
		if err != nil {
			return nil, err
		}
		if saved {
			s = rp.rec.begin("snap.loadfile", root, n)
			_, err = snap.LoadFile(ckpt)
			rp.rec.end(s)
			if err != nil {
				return nil, err
			}
			os.Remove(ckpt)
		}
		rp.rec.end(root)
		rp.explained = append(rp.explained, soFar+encode+put+done)
	}
	hits, misses := pool.Stats()
	rp.values["workloads.warm_hit_share"] = share(hits, misses)
	return rp, probeJournalReplay(rp, filepath.Join(dir, "journal", "journal.wal"), rdir)
}

// probeJournalReplay times journal.Open on a copy of the daemon's
// journal (Open truncates torn tails, so never on the original).
func probeJournalReplay(rp *replay, src, scratch string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	dst := filepath.Join(scratch, "journal-copy.wal")
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		return err
	}
	s := rp.rec.begin("journal.open_replay", -1, -1)
	j, _, err := journal.Open(dst)
	rp.rec.end(s)
	if err != nil {
		return err
	}
	return j.Close()
}

const (
	// reuseRoundOps cache hits make one round of serve_reuse (about half
	// a second here).
	reuseRoundOps = 2000
	// reuseReplayOps is the fixed length of the serve_reuse replay.
	reuseReplayOps = 20000
)

// replayServeReuse replays the hit path in process against the cache
// directory the daemon populated: canonicalize, key, Cache.Get (disk on
// a key's first touch, memory after). It then issues the same ops to an
// in-process Server to price the hit path without HTTP.
func replayServeReuse(ctx context.Context, cfg *config, dir string, e *e2eRun) (*replay, error) {
	size := cfg.sizeOr(workloads.SizeSmall).String()
	keys := reuseKeys(evaluatedApps(cfg.appLimit), size)
	stream := reuseStream(cfg.seed, len(keys), reuseReplayOps)
	rp := newReplay()

	cacheDir := filepath.Join(dir, "cache")
	cache, err := serve.NewCache(cacheDir)
	if err != nil {
		return nil, err
	}
	touched := make([]bool, len(keys))
	for n, k := range stream {
		root := rp.rec.begin("op:"+keys[k].App, -1, n)
		c, key, err := rp.canonKey(root, n, &keys[k])
		if err != nil {
			return nil, err
		}
		name := "serve.cache_get_mem"
		if !touched[k] {
			name, touched[k] = "serve.cache_get_disk", true
		}
		s := rp.rec.begin(name, root, n)
		art, ok := cache.Get(key)
		rp.rec.end(s)
		if !ok || len(art) == 0 {
			return nil, fmt.Errorf("replay op %d (%s): not in the populated cache", n, c.App)
		}
		rp.explained = append(rp.explained, rp.rec.end(root))
	}

	srv, err := serve.NewServer(serve.Config{Workers: 1, CacheDir: cacheDir})
	if err != nil {
		return nil, err
	}
	var inproc []float64
	for _, k := range stream {
		t0 := time.Now()
		j, err := srv.Submit(&keys[k], true)
		if err != nil {
			return nil, err
		}
		v := srv.View(j, true)
		if v.Status != serve.StatusDone || !v.Cached {
			return nil, fmt.Errorf("in-process submit of %s: status %s cached %t", keys[k].App, v.Status, v.Cached)
		}
		for _, name := range v.Artifacts {
			if _, ok := srv.Artifact(j, name); !ok {
				return nil, fmt.Errorf("in-process artifact %s of %s missing", name, keys[k].App)
			}
		}
		inproc = append(inproc, us(time.Since(t0)))
	}
	if err := srv.Drain(ctx); err != nil {
		return nil, err
	}
	rp.values["serve.http_overhead_us"] = max(0, medianMS(e.lat)*1000-median(inproc))

	return rp, probeJournalReplay(rp, filepath.Join(dir, "journal", "journal.wal"), dir)
}
