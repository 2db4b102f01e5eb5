package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"misp/internal/fault"
	"misp/internal/journal"
	"misp/internal/obs"
)

// Admission-control sentinels. The HTTP layer maps ErrQueueFull to
// 429 + Retry-After (backpressure: the client should retry), and
// ErrDraining and ErrNotDurable to 503 (this daemon cannot take the job;
// try again later or try another instance).
var (
	ErrQueueFull = errors.New("serve: job queue full")
	ErrDraining  = errors.New("serve: draining, not accepting jobs")
	// ErrNotDurable refuses a submission whose accepted record did not
	// reach the journal: acknowledging it would promise a recovery that a
	// restart could not deliver. The job itself fails, ReasonNotDurable.
	ErrNotDurable = errors.New("serve: job could not be journaled")
)

// Config parameterizes a Server.
type Config struct {
	// QueueDepth bounds the number of jobs admitted but not yet running
	// (default 64). A full queue rejects with ErrQueueFull.
	QueueDepth int
	// Workers is the number of jobs executed concurrently (default
	// GOMAXPROCS/2, min 1). Each sweep may itself fan out over
	// Request.Parallel host workers.
	Workers int
	// CacheDir persists the result cache across restarts ("" = memory
	// only).
	CacheDir string

	// JournalDir enables the durable job plane: accepted/started/
	// preempted/terminal transitions are written to a fsync'd
	// write-ahead journal in this directory and replayed on startup, so
	// accepted jobs survive SIGKILL ("" = jobs are memory-only).
	// Checkpoint images, each its own record, live in the same directory.
	JournalDir string
	// CheckpointCycles arms a mid-run checkpoint every N simulated
	// cycles on run requests (0 = an image only when preempted).
	// Requires JournalDir.
	CheckpointCycles uint64
	// MaxRetries bounds execution leases per job: a job whose attempt
	// fails (or whose previous lease died with the process) is retried
	// with jittered exponential backoff until this many attempts have
	// been burned, then fails with a structured JobError (default 3).
	MaxRetries int
	// JobTimeout is the per-job wall-clock budget measured from
	// admission; a job still running past it fails with a JobError
	// (reason deadline-exceeded) rather than retrying (0 = no budget).
	JobTimeout time.Duration

	// MemBudget is the host heap budget in bytes and the master switch
	// for resource governance (0 = governance off, the historical
	// behavior). With a budget set, every job carries a per-size wall
	// allowance and the pressure monitor escalates through shed →
	// preempt as the measured heap approaches the budget.
	MemBudget uint64
	// Logf, when set, receives operational log lines (pressure
	// transitions, preemptions). Printf-style; nil discards.
	Logf func(format string, args ...any)

	// Test seams, like Server.exec and Server.heapBytes: fixed policy in
	// production (defaults below), unreachable from any flag, request or
	// file. retryBackoff is the base of the jittered exponential retry
	// backoff (250ms); pressureTick is the pressure monitor cadence
	// (250ms).
	retryBackoff time.Duration
	pressureTick time.Duration
}

func (c *Config) defaults() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = max(1, runtime.GOMAXPROCS(0)/2)
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	c.retryBackoff = cmp.Or(c.retryBackoff, 250*time.Millisecond)
	c.pressureTick = cmp.Or(c.pressureTick, 250*time.Millisecond)
}

// Server is the service plane: admission control in front of a bounded
// queue, a fixed worker pool executing jobs on isolated machines, and
// the content-addressed result cache.
type Server struct {
	cfg   Config
	cache *Cache
	start time.Time

	mu   sync.Mutex
	jobs map[string]*Job
	// keys maps a key to its queued or running job (single-flight) or its
	// cache-hit record: settleLocked removes every other job, so a
	// terminal job here is a hit record.
	keys     map[string]*Job
	failures []*Job // failed and canceled jobs in the table, oldest settled first
	queue    *jobQueue
	draining bool
	seq      int

	baseCtx    context.Context
	baseCancel context.CancelCauseFunc
	wg         sync.WaitGroup

	// reg holds the service metrics, bumped by name. The obs registry is
	// unsynchronized by design (each machine owns its own); here every
	// mutation happens under mu, and /metrics renders under mu too.
	reg  *obs.Registry
	exec func(ctx context.Context, j *Job) (Artifacts, *Result, error)

	// jnl is the write-ahead job journal (nil without Config.JournalDir).
	// Appends fsync outside mu; the journal has its own lock.
	jnl *journal.Journal

	// Governance plumbing. est predicts queue drain time for Retry-After
	// hints; pressure is the monitor's current escalation level (atomic:
	// read on the admission path without mu); heapBytes is the heap
	// reader (obs.HostHeapBytes, injectable in tests like exec); govStop
	// ends the monitor goroutine at drain.
	est       drainEstimator
	pressure  atomic.Int32
	heapBytes func() uint64
	govStop   chan struct{}
}

// NewServer builds and starts a server: its workers are running and
// Submit is live when it returns. With Config.JournalDir set, the job
// journal is replayed first — jobs a previous process finished retire,
// and those it left unfinished are re-enqueued (resuming from their last
// checkpoint), deduped against the result cache, or failed with a
// recorded diagnosis when their retry budget is spent — and the journal
// is compacted by atomic rotation before any new work is admitted.
func NewServer(cfg Config) (*Server, error) { return newServer(cfg, func(*Server) {}) }

// newServer is NewServer with a test seam: prep sees the server before replay.
func newServer(cfg Config, prep func(*Server)) (*Server, error) {
	cfg.defaults()
	cache, err := NewCache(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		cache: cache,
		start: time.Now(),
		jobs:  make(map[string]*Job),
		keys:  make(map[string]*Job),
		queue: newJobQueue(),
		reg:   obs.NewRegistry(),

		heapBytes: obs.HostHeapBytes,
		govStop:   make(chan struct{}),
	}
	s.exec = s.executeJob
	s.baseCtx, s.baseCancel = context.WithCancelCause(context.Background())
	prep(s)
	// Every metric is registered up front so /metrics lists it at zero.
	for _, name := range []string{
		"serve.jobs.submitted", "serve.jobs.completed", "serve.jobs.failed", "serve.jobs.canceled",
		"serve.jobs.coalesced", "serve.jobs.retries", "serve.jobs.preempted",
		"serve.rejected.queue_full", "serve.rejected.draining",
		"serve.cache.hits", "serve.cache.misses", "serve.cache.put_errors",
		"serve.journal.appends", "serve.journal.append_errors",
		"serve.journal.replayed", "serve.journal.torn_bytes", "serve.journal.rotations",
		"serve.resume.jobs", "serve.resume.deduped", "serve.resume.failed",
		"serve.resume.checkpoints", "serve.resume.restores", "serve.resume.corrupt",
		"serve.pressure.level", "serve.pressure.heap_bytes", "serve.pressure.sheds",
		"serve.pressure.transitions", "serve.pressure.preempt_requests", "serve.queue.wait_est_ms",
	} {
		s.reg.Counter(name)
	}
	s.reg.Histogram("serve.job.wall_ms")

	if cfg.JournalDir != "" {
		if err := os.MkdirAll(cfg.JournalDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: journal dir: %w", err)
		}
		jnl, payloads, err := journal.Open(filepath.Join(cfg.JournalDir, "journal.wal"))
		if err != nil {
			return nil, fmt.Errorf("serve: journal: %w", err)
		}
		s.jnl = jnl
		s.reg.Counter("serve.journal.torn_bytes").Set(uint64(jnl.TornTail()))
		s.recover(payloads)
		if err := jnl.Rotate(s.compactionRecords()); err != nil {
			jnl.Close()
			return nil, fmt.Errorf("serve: journal compaction: %w", err)
		}
		s.reg.Counter("serve.journal.rotations").Inc()
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.governed() {
		s.wg.Add(1)
		go s.governor()
	}
	return s, nil
}

// executeJob is the default execution path: each job prepares its own
// machine cold or forks its own checkpoint image — the daemon keeps no
// machine between jobs.
func (s *Server) executeJob(ctx context.Context, j *Job) (Artifacts, *Result, error) {
	return ExecuteCheckpointed(ctx, j.Req, nil, s.checkpointSpec(j))
}

// checkpointSpec is j's checkpoint plane: an image every
// CheckpointCycles and one when its lease is preempted, each file the
// only record of that progress; disabled without a journal directory.
func (s *Server) checkpointSpec(j *Job) *CheckpointSpec {
	return &CheckpointSpec{
		Dir:          s.cfg.JournalDir,
		Every:        s.cfg.CheckpointCycles,
		OnCheckpoint: func(cycle uint64) { s.setCkpt(j, cycle, "serve.resume.checkpoints") },
		OnRestore:    func(cycle uint64) { s.setCkpt(j, cycle, "serve.resume.restores") },
		OnCorrupt:    func(error) { s.setCkpt(j, 0, "serve.resume.corrupt") },
	}
}

// setCkpt records the cycle of the image j's run just saved or resumed
// from (0: its image was discarded), for its view, and bumps the named
// counter.
func (s *Server) setCkpt(j *Job, cycle uint64, counter string) {
	s.mu.Lock()
	j.Ckpt = cycle
	s.reg.Counter(counter).Inc()
	s.mu.Unlock()
}

// count bumps one service counter by name, for events outside any
// larger critical section.
func (s *Server) count(name string) {
	s.mu.Lock()
	s.reg.Counter(name).Inc()
	s.mu.Unlock()
}

// Submit validates and admits one request. The returned job is:
//
//   - already terminal (StatusDone, Cached=true) on a cache hit: the
//     key's one hit record, the same job for every hit of the key;
//   - an existing in-flight job when an identical canonical request is
//     already queued or running (single-flight: a byte-identical
//     request never simulates twice, even concurrently);
//   - otherwise a fresh queued job.
//
// detached marks fire-and-forget submissions that must survive client
// disconnects; synchronous submissions pass false and hold a waiter
// ref (AddWaiter/ReleaseWaiter) for their connection's lifetime.
func (s *Server) Submit(req *Request, detached bool) (*Job, error) {
	c, err := req.Canonicalize()
	if err != nil {
		return nil, err
	}
	key := c.Key()

	// Look the key up before taking mu: a disk read and its SHA-256 check
	// must not stall every View, /metrics, settle and Submit behind them.
	// The hit/miss count stays where the admission order puts it.
	art, cached := s.cache.Get(key)

	s.mu.Lock()
	j, accepted, err := s.admitLocked(c, key, art, cached, detached)
	s.mu.Unlock()
	if err != nil || accepted == nil {
		return j, err
	}
	// The accepted record is written after the queue send but before
	// Submit returns: a 202 implies the job is durable. Rejections are
	// never journaled (nothing was promised), and the fsync happens
	// outside mu. If the record does not land, neither does the promise:
	// the job is canceled with a JobError cause — the worker that pops it
	// (or already runs it) settles it failed — and the submission refused.
	if err := s.journalAppend(*accepted); err != nil {
		je := &JobError{ID: j.ID, Key: key, Reason: ReasonNotDurable, Err: fmt.Errorf("%w: %v", ErrNotDurable, err)}
		j.cancel(je)
		return nil, je
	}
	return j, nil
}

// admitLocked is Submit's admission decision, given Submit's cache
// lookup. It returns the accepted record only for a newly queued job (the
// caller journals it): cache hits and coalesced submissions are not fresh
// work and carry none. Called with mu held.
func (s *Server) admitLocked(c *Request, key string, art Artifacts, cached, detached bool) (*Job, *jrec, error) {
	if s.draining {
		s.reg.Counter("serve.rejected.draining").Inc()
		return nil, nil, ErrDraining
	}

	// Single-flight: piggyback on an identical in-flight job.
	held := s.keys[key]
	if held != nil && !held.Status.Terminal() {
		s.reg.Counter("serve.jobs.coalesced").Inc()
		if detached {
			held.detached = true
		}
		return held, nil, nil
	}

	// Cache: an identical completed request is served without touching
	// the queue at all. Every admission that gets this far counts one hit
	// or one miss. The first hit of a key makes its hit record, a terminal
	// job whose view is rendered here once; every later hit counts as a
	// submitted and completed job and returns that same record, so a hit
	// allocates no job, context or ID. The record answers only while the
	// cache does: a key the cache no longer holds takes the miss path.
	// A missed lookup asks memory again, never the disk: a job's Put fills
	// memory before the job settles, so single-flight still holds.
	if !cached {
		art, cached = s.cache.get(key, false)
	}
	if cached {
		s.reg.Counter("serve.cache.hits").Inc()
		s.reg.Counter("serve.jobs.submitted").Inc()
		if held != nil { // terminal, so the key's hit record
			s.reg.Counter("serve.jobs.completed").Inc()
			return held, nil, nil
		}
		j := s.newJobLocked(c, key, detached)
		j.Cached = true
		s.registerLocked(j)
		s.settleLocked(j, &Result{ChecksumOK: true}, nil)
		v := viewLocked(j, true)
		v.Artifacts = art.Names()
		j.view = encodeJSON(v)
		s.keys[key] = j
		return j, nil, nil
	}
	s.reg.Counter("serve.cache.misses").Inc()

	// Admission: the pressure shed, then the queue bound.
	j := s.newJobLocked(c, key, detached)
	if err := s.admitGovernedLocked(); err != nil {
		return nil, nil, err
	}
	if s.queue.len() >= s.cfg.QueueDepth {
		s.reg.Counter("serve.rejected.queue_full").Inc()
		return nil, nil, ErrQueueFull
	}
	s.registerLocked(j)
	accepted := &jrec{Op: opAccepted, ID: j.ID, Key: key, Req: c}
	advanceLocked(j, *accepted)
	s.keys[key] = j // replaces a hit record whose entry the cache no longer holds
	s.reg.Counter("serve.jobs.submitted").Inc()
	// The push cannot meet a closed queue: Drain sets draining and closes
	// it in one critical section, and draining was checked under this one.
	s.queue.push(j)
	return j, accepted, nil
}

// newJobLocked allocates a job record for a submission and takes the
// next ID. A refused admission simply drops it; an admitted one (or a
// cache hit) is entered with registerLocked. Called with mu held.
func (s *Server) newJobLocked(c *Request, key string, detached bool) *Job {
	s.seq++
	return &Job{
		ID:       fmt.Sprintf("j%d-%s", s.seq, key[:8]),
		seq:      s.seq,
		Key:      key,
		Req:      c,
		Created:  time.Now(),
		detached: detached,
	}
}

// registerLocked enters j into the job table and gives it its context
// and completion channel — for a submission and a replayed job alike.
// Called with mu held (or, by recover, before anyone else can take it).
func (s *Server) registerLocked(j *Job) {
	j.done = make(chan struct{})
	j.ctx, j.cancel = context.WithCancelCause(s.baseCtx)
	s.jobs[j.ID] = j
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job record in submission order (its ID's sequence).
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	out := slices.Collect(maps.Values(s.jobs))
	s.mu.Unlock()
	slices.SortFunc(out, func(a, b *Job) int { return cmp.Compare(a.seq, b.seq) })
	return out
}

// Artifact fetches one artifact of a completed job from the cache. The
// cache stores only names that pass ValidArtifactName, so any other name
// is simply absent.
func (s *Server) Artifact(j *Job, name string) ([]byte, bool) {
	art, _ := s.cache.Get(j.Key)
	data, ok := art[name]
	return data, ok
}

// Cancel aborts a job and returns it, or nil when id is unknown: a
// queued job never runs, a running job's simulation stops at its next
// event horizon. Canceling a terminal job is a no-op.
func (s *Server) Cancel(id string, cause error) *Job {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j != nil {
		j.cancel(cause)
	}
	return j
}

// AddWaiter registers a synchronous client waiting on j.
func (s *Server) AddWaiter(j *Job) {
	s.mu.Lock()
	j.refs++
	s.mu.Unlock()
}

// ReleaseWaiter drops a waiter. When the last waiter of a
// non-detached, non-terminal job disconnects, the job is canceled —
// nobody is left to read the answer.
func (s *Server) ReleaseWaiter(j *Job) {
	s.mu.Lock()
	j.refs--
	abandon := j.refs <= 0 && !j.detached && !j.Status.Terminal()
	s.mu.Unlock()
	if abandon {
		// Canceled, not failed, even while queued or in retry backoff.
		j.cancel(fmt.Errorf("serve: client disconnected: %w", context.Canceled))
	}
}

// worker executes queued jobs until the queue is closed (drain).
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// runJob drives one popped job until it settles or goes back to the
// queue. Each pass of the loop is one execution lease, journaled as a
// started record with its attempt number: if the process dies mid-lease,
// replay sees the burned attempt and either retries with the remaining
// budget or fails the job. A lease that fails in process is retried
// after a jittered exponential backoff until MaxRetries attempts are
// spent, then settles as a structured JobError; cancellation and deadline
// expiry are never retried. Each lease runs under a context of its own
// whose cancel func the job holds while the lease lasts; the governor
// preempts a lease by canceling it with ErrPreempted. A lease ending in
// preemption does not settle at all: the job is parked and goes back to
// the queue, and its resume lease continues the same attempt — being
// preempted never burns the retry budget.
func (s *Server) runJob(j *Job) {
	ctx := j.ctx
	if deadline, ok := s.jobDeadline(j); ok {
		// The budget runs from admission, so time spent queued counts
		// against it (a recovered job's admission is its replay: recover
		// stamps Created at boot). The deadline cause carries the
		// structured diagnosis.
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadlineCause(j.ctx, deadline,
			&JobError{ID: j.ID, Key: j.Key, Reason: ReasonDeadline})
		defer cancel()
	}
	for {
		s.mu.Lock()
		// A base-context cancel (the drain deadline) reaches the job
		// contexts one at a time while it holds the base's lock, so a job
		// popped mid-way can still read as live: asking the base too waits
		// the propagation out.
		if cause := cmp.Or(context.Cause(j.ctx), context.Cause(s.baseCtx)); cause != nil {
			s.mu.Unlock()
			s.settle(j, nil, cause) // canceled while queued: it never takes the lease
			return
		}
		attempt, started := j.Attempt, time.Now()
		if !j.Preempted || attempt == 0 {
			// A fresh lease burns an attempt; a resume lease continues the
			// one its preemption interrupted.
			if attempt++; attempt > 1 {
				s.reg.Counter("serve.jobs.retries").Inc()
			}
		}
		j.Started = started
		lease, cancelLease := context.WithCancelCause(ctx)
		j.lease = cancelLease
		s.mu.Unlock()
		s.step(j, jrec{Op: opStarted, ID: j.ID, Attempt: attempt})

		art, res, err := s.exec(lease, j)
		wall := time.Since(started)
		s.est.observe(wall) // every lease frees a worker slot: feed the drain estimator
		s.mu.Lock()
		j.Wall += wall
		j.lease = nil
		s.mu.Unlock()
		cancelLease(nil)

		var je *JobError
		switch {
		case err == nil:
			// The job itself succeeded; losing disk persistence only costs a
			// future re-simulation (the in-memory layer still has the entry).
			if s.cache.Put(j.Key, art) != nil {
				s.count("serve.cache.put_errors")
			}
		case errors.Is(err, ErrPreempted):
			// The preempted record makes the parked state survive a crash
			// while the job sits in the queue: replay re-enqueues it as a
			// resume lease.
			s.mu.Lock()
			j.Preempts++
			s.reg.Counter("serve.jobs.preempted").Inc()
			ckpt := j.Ckpt
			s.mu.Unlock()
			s.step(j, jrec{Op: opPreempted, ID: j.ID, Cycle: ckpt})
			if s.queue.push(j) {
				s.logf("job %s preempted at cycle %d, re-enqueued", j.ID, ckpt)
				return // the job is queued again; this worker moves on
			}
			// Drain closed the queue between the preemption and the
			// re-enqueue. The job is never lost: this worker keeps it and
			// takes the resume lease itself, whose started record un-parks it.
			continue
		case errors.Is(err, context.DeadlineExceeded) && errors.As(context.Cause(ctx), &je):
			// Surface the per-job deadline as its JobError cause rather than
			// the bare ctx error.
			je.Attempts = attempt
			err = je
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			// Cancellation is a verdict, not a failure to retry.
		case cycleLimit(err):
			// The run tripped core's deterministic cycle-limit abort;
			// re-running would burn the identical cycles to the identical
			// verdict, so the retry budget does not apply.
			err = &JobError{ID: j.ID, Key: j.Key, Reason: ReasonBudget, Attempts: attempt, Err: err}
		case attempt >= s.cfg.MaxRetries:
			err = &JobError{ID: j.ID, Key: j.Key, Reason: ReasonRetries, Attempts: attempt, Err: err}
		case sleep(ctx, backoff(s.cfg.retryBackoff, 32*s.cfg.retryBackoff, attempt)):
			continue // the next lease burns the next attempt
		default:
			err = context.Cause(ctx) // canceled mid-backoff: a dying job does not sit it out
		}
		s.settle(j, res, err)
		return
	}
}

// backoff is the jittered exponential backoff before retry attempt+1,
// for the server's leases and the client's requests alike:
// base·2^(attempt−1), capped at limit, then drawn uniformly from
// [d/2, 3d/2).
func backoff(base, limit time.Duration, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt && d < limit; i++ {
		d *= 2
	}
	d = min(d, limit)
	return d/2 + rand.N(d)
}

// sleep waits d and reports true, or reports false as soon as ctx is
// done.
func sleep(ctx context.Context, d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}

// jobDeadline resolves a job's wall deadline: the tighter of the
// configured JobTimeout and, when governed, the request's wall
// allowance, both measured from admission.
func (s *Server) jobDeadline(j *Job) (time.Time, bool) {
	limit := s.cfg.JobTimeout
	if s.governed() {
		if w := wallLimit(j.Req); limit == 0 || w < limit {
			limit = w
		}
	}
	if limit == 0 {
		return time.Time{}, false
	}
	return j.Created.Add(limit), true
}

// cycleLimit reports whether err is core's cycle-limit abort.
func cycleLimit(err error) bool {
	var d *fault.Diagnosis
	return errors.As(err, &d) && d.Reason == fault.ReasonCycleLimit
}

// QueueDepth returns (queued, capacity).
func (s *Server) QueueDepth() (int, int) { return s.queue.len(), s.cfg.QueueDepth }

// Counts returns job-status aggregates for health reporting.
func (s *Server) Counts() (queued, running, done, failed, canceled int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		switch j.Status {
		case StatusQueued:
			queued++
		case StatusRunning:
			running++
		case StatusDone:
			done++
		case StatusFailed:
			failed++
		case StatusCanceled:
			canceled++
		}
	}
	return
}

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the service plane down: admission closes
// immediately (new submissions get ErrDraining), every already-accepted
// job is run to completion, and the call returns when the last worker
// exits. If ctx expires first, the remaining jobs are canceled — each
// settles as StatusCanceled with no partial artifacts (the cache is
// only written after a fully successful execution) — and Drain waits
// for the workers to acknowledge before returning ctx's error.
// Idempotent: later calls wait on the same shutdown.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.queue.close() // workers finish the backlog, then exit
		close(s.govStop)
	}
	s.mu.Unlock()

	workersDone := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(workersDone)
	}()
	var err error
	select {
	case <-workersDone:
	case <-ctx.Done():
		// Deadline hit: abort everything still in flight (and still queued
		// — job contexts cover both), then wait for the workers to settle
		// the records. Simulations abort at their next event horizon, so
		// this second wait is prompt.
		s.baseCancel(fmt.Errorf("serve: drain deadline exceeded: %w", context.Cause(ctx)))
		<-workersDone
		err = ctx.Err()
	}
	if s.jnl != nil {
		s.jnl.Close() // the last worker has written its terminal records
	}
	return err
}

// Metrics renders the service metrics registry plus the live gauges
// (queue depth, in-flight jobs, cache entries) as plain text.
func (s *Server) Metrics() string {
	queued := s.queue.len()
	waitEst := s.EstimatedRetryAfter()
	_, running, _, _, _ := s.Counts()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg.Counter("serve.queue.depth").Set(uint64(queued))
	s.reg.Counter("serve.queue.capacity").Set(uint64(s.cfg.QueueDepth))
	s.reg.Counter("serve.queue.wait_est_ms").Set(uint64(waitEst.Milliseconds()))
	s.reg.Counter("serve.jobs.inflight").Set(uint64(running))
	s.reg.Counter("serve.cache.entries").Set(uint64(s.cache.Len()))
	if s.governed() {
		s.reg.Counter("serve.pressure.budget_bytes").Set(s.cfg.MemBudget)
	}
	return s.reg.String()
}
