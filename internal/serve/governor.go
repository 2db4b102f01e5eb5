package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// This file is the resource-governance layer: the per-size wall-clock
// allowance, the queue-drain estimator behind computed Retry-After
// hints, and the host pressure monitor that escalates through shedding
// and preemption instead of letting the kernel OOM-kill the daemon.
// Memory is governed by the measured heap alone.

// ErrPressure rejects an admission under host memory pressure. The HTTP
// layer maps it to 429 with a computed Retry-After, same as a full
// queue: the condition is transient, the client should back off and
// retry.
var ErrPressure = errors.New("serve: shedding load under memory pressure")

// wallLimit is a governed job's host wall-clock allowance, measured from
// admission and scaled by the request's declared size (jobDeadline
// merges it with JobTimeout). A sweep's grid points are individually
// short, so wall time bounds the sweep as a whole; each machine's cycle
// guard bounds its own run.
func wallLimit(c *Request) time.Duration {
	run, sweep := 4*time.Hour, 16*time.Hour // ref
	switch c.Size {
	case "test":
		run, sweep = 5*time.Minute, 20*time.Minute
	case "small":
		run, sweep = 30*time.Minute, 2*time.Hour
	}
	if c.Kind == KindSweep {
		return sweep
	}
	return run
}

// --- queue-drain estimator -------------------------------------------

// drainEstimator predicts how long a newly rejected client should wait
// before the queue has drained enough to admit it: an EWMA over
// completed jobs' wall times, scaled by queue depth over worker count.
// It replaces the constant Retry-After hint, which undersells the wait
// under sustained load (satellite: queue-full 429s must report the
// ceiling of the estimated drain time).
type drainEstimator struct {
	mu  sync.Mutex
	avg time.Duration // EWMA, 0 until the first observation
}

// observe folds one completed job's wall time into the moving average
// (alpha = 1/4; the first sample seeds the average directly).
func (e *drainEstimator) observe(d time.Duration) {
	if d <= 0 {
		return
	}
	e.mu.Lock()
	if e.avg == 0 {
		e.avg = d
	} else {
		e.avg += (d - e.avg) / 4
	}
	e.mu.Unlock()
}

// avgWall returns the current moving average (0 = no data yet).
func (e *drainEstimator) avgWall() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.avg
}

// The hint's bounds. Below retryAfterFloor the estimator would promise a
// faster retry than one backpressure window (and "Retry-After: 0" tells
// a client there is no backpressure at all); past maxRetryAfter the
// estimate says more about the estimator than the queue, and clients cap
// server hints anyway.
const (
	retryAfterFloor = time.Second
	maxRetryAfter   = 10 * time.Minute
)

// estimate is the drain-time prediction for a client arriving behind
// `queued` jobs on `workers` workers: avg × (queued+1) / workers,
// clamped to [retryAfterFloor, maxRetryAfter]. Monotone in queue depth
// and average wall time by construction (table-tested).
func (e *drainEstimator) estimate(queued, workers int) time.Duration {
	if workers < 1 {
		workers = 1
	}
	if queued < 0 {
		queued = 0
	}
	d := e.avgWall() * time.Duration(queued+1) / time.Duration(workers)
	return min(max(d, retryAfterFloor), maxRetryAfter)
}

// EstimatedRetryAfter is the server's current backpressure hint: the
// estimated queue drain time, never below retryAfterFloor.
func (s *Server) EstimatedRetryAfter() time.Duration {
	return s.est.estimate(s.queue.len(), s.cfg.Workers)
}

// --- pressure monitor -------------------------------------------------

// pressureLevel is the monitor's escalation ladder. Each level implies
// everything below it.
type pressureLevel int32

const (
	// pressureNominal: full service.
	pressureNominal pressureLevel = iota
	// pressureShed: every fresh admission is shed with a computed
	// Retry-After, and readiness reports 503.
	pressureShed
	// pressureCritical: the queue is held and the youngest running run
	// is preempted (its lease canceled, image persisted where the run
	// stopped, re-enqueued) until the heap falls back below the critical
	// watermark. Jobs are never killed.
	pressureCritical
)

// The escalation watermarks, as fractions of Config.MemBudget. Fixed
// policy: no caller ever set them.
const (
	shedFrac     = 0.70
	criticalFrac = 0.95
)

func (l pressureLevel) String() string {
	switch l {
	case pressureShed:
		return "shed"
	case pressureCritical:
		return "critical"
	}
	return "nominal"
}

// level returns the monitor's current escalation level (atomic; safe
// without the server lock).
func (s *Server) level() pressureLevel { return pressureLevel(s.pressure.Load()) }

// governed reports whether memory governance is on.
func (s *Server) governed() bool { return s.cfg.MemBudget > 0 }

// governor is the pressure monitor goroutine: every tick it classifies
// the heap against the budget's watermarks and applies the level's
// responses. It exits when the server drains.
func (s *Server) governor() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.pressureTick)
	defer t.Stop()
	for {
		select {
		case <-s.govStop:
			return
		case <-t.C:
			s.governTick()
		}
	}
}

// governTick is one classification + response pass. Split out so tests
// can drive the monitor synchronously with an injected heap reader.
func (s *Server) governTick() {
	budget := s.cfg.MemBudget
	heap := s.heapBytes()
	if heap >= uint64(float64(budget)*shedFrac) {
		// Above the shed watermark the reading must separate live
		// simulation state from collectable garbage before the daemon
		// degrades service (or preempts a job) over memory that one GC
		// would have handed back.
		runtime.GC()
		heap = s.heapBytes()
	}
	level := pressureNominal
	switch {
	case heap >= uint64(float64(budget)*criticalFrac):
		level = pressureCritical
	case heap >= uint64(float64(budget)*shedFrac):
		level = pressureShed
	}
	prev := pressureLevel(s.pressure.Swap(int32(level)))
	s.queue.setHold(level >= pressureCritical)

	s.mu.Lock()
	s.reg.Counter("serve.pressure.level").Set(uint64(level))
	s.reg.Counter("serve.pressure.heap_bytes").Set(heap)
	if level != prev {
		s.reg.Counter("serve.pressure.transitions").Inc()
	}
	s.mu.Unlock()
	if level != prev {
		s.logf("pressure %s -> %s (heap %dMiB of %dMiB budget)",
			prev, level, heap>>20, budget>>20)
	}
	if level >= pressureCritical {
		s.preemptVictim()
	}
}

// preemptVictim cancels the best victim's lease with ErrPreempted, and
// clears it, so a lease is preempted once: the run stops within one
// selection, persists its image there, and the job re-enqueues (runJob's
// ErrPreempted path). No-op while draining, without a journal (no image
// plane to persist into), or when no running job holds a lease.
func (s *Server) preemptVictim() bool {
	if s.jnl == nil || s.Draining() {
		return false
	}
	s.mu.Lock()
	v := s.pickVictimLocked()
	if v != nil {
		v.lease(ErrPreempted)
		v.lease = nil
		s.reg.Counter("serve.pressure.preempt_requests").Inc()
	}
	s.mu.Unlock()
	if v != nil {
		s.logf("preempting job %s", v.ID)
	}
	return v != nil
}

// pickVictimLocked selects the preemption victim among running jobs
// that hold a lease: the youngest start (least progress thrown to disk),
// then job ID for determinism. Only run requests are preemptable — a
// sweep's machines have no single image to resume from; sweeps stay
// bounded by their wall allowance instead. Called with mu held.
func (s *Server) pickVictimLocked() *Job {
	var v *Job
	for _, j := range s.jobs {
		if j.Status != StatusRunning || j.Req.Kind != KindRun || j.lease == nil {
			continue
		}
		if v == nil || betterVictim(j, v) {
			v = j
		}
	}
	return v
}

// betterVictim reports whether a should be preempted before b.
func betterVictim(a, b *Job) bool {
	if !a.Started.Equal(b.Started) {
		return a.Started.After(b.Started)
	}
	return a.ID < b.ID
}

// logf reports an operational event through the configured sink.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// admitGovernedLocked sheds a fresh (non-coalesced, non-cached)
// submission while the monitor's last heap reading is at or above the
// shed watermark. Called with mu held; returns the admission error, if
// any.
func (s *Server) admitGovernedLocked() error {
	if !s.governed() {
		return nil
	}
	if level := s.level(); level >= pressureShed {
		s.reg.Counter("serve.pressure.sheds").Inc()
		return fmt.Errorf("%w (level %s)", ErrPressure, level)
	}
	return nil
}
