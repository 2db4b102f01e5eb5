package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"misp/internal/core"
	"misp/internal/workloads"
)

// This file is the resource-governance layer: per-job budgets computed
// at admission (estimated resident host memory from topology/physmem,
// a wall-clock allowance), the queue-drain estimator behind computed
// Retry-After hints, and the host pressure monitor that escalates
// through shedding and cooperative preemption instead of letting the
// kernel OOM-kill the daemon.

// Overload-control sentinels, on top of ErrQueueFull/ErrDraining.
var (
	// ErrPressure rejects an admission under host memory pressure. The
	// HTTP layer maps it to 429 with a computed Retry-After, same as a
	// full queue: the condition is transient, the client should back off
	// and retry.
	ErrPressure = errors.New("serve: shedding load under memory pressure")
	// ErrOverBudget rejects a job whose estimated resident memory exceeds
	// the daemon's entire budget: no amount of waiting will make it fit,
	// so the HTTP layer maps it to 413 (not retryable).
	ErrOverBudget = errors.New("serve: job memory estimate exceeds daemon budget")
)

// Budget is one job's admission-time resource envelope. EstBytes is the
// projected peak resident host memory (it charges each machine its
// configured simulated physical memory, an upper bound: a machine backs
// only the frames its run reaches); MaxWall bounds host
// wall time from admission (enforced as a deadline with a JobError
// cause). Zero fields are unenforced. The simulated clock has one limit,
// the workload's own cycle guard that every run carries.
type Budget struct {
	EstBytes uint64        `json:"est_bytes,omitempty"`
	MaxWall  time.Duration `json:"max_wall,omitempty"`
}

// estMachineOverhead is the per-machine resident estimate beyond the
// simulated physical memory: page tables, compiled superblock pages,
// obs buffers, and the snapshot image a checkpoint or warm-pool capture
// holds transiently.
const estMachineOverhead = 32 << 20

// estimateBudget computes a canonical request's resource envelope.
// Estimates are deliberately conservative (admission control must err
// toward shedding, not OOM): a run is one machine sized by its
// config's PhysMem; a sweep runs up to min(parallel, host cores,
// grid points) machines concurrently.
func estimateBudget(c *Request) Budget {
	var b Budget
	switch c.Kind {
	case KindRun:
		phys := uint64(256 << 20)
		if cfg, err := c.config(); err == nil {
			phys = cfg.PhysMem
		}
		b.EstBytes = phys + estMachineOverhead
		switch c.Size {
		case "test":
			b.MaxWall = 5 * time.Minute
		case "small":
			b.MaxWall = 30 * time.Minute
		default: // ref
			b.MaxWall = 4 * time.Hour
		}
	case KindSweep:
		points := 3 * len(c.Apps) // every app × 1P/MISP/SMP
		if len(c.Apps) == 0 {
			points = 3 * len(workloads.All())
		}
		width := c.Parallel
		if width <= 0 {
			width = runtime.GOMAXPROCS(0)
		}
		if width > points {
			width = points
		}
		// PhysMem is topology-independent in the sweep default config; a
		// trivial topology probes the per-machine allocation.
		phys := workloads.DefaultConfig(core.Topology{1}).PhysMem
		b.EstBytes = uint64(width) * (phys + estMachineOverhead)
		// Grid points are individually short; wall time bounds the sweep
		// (each machine's cycle guard bounds its grid point).
		switch c.Size {
		case "test":
			b.MaxWall = 20 * time.Minute
		case "small":
			b.MaxWall = 2 * time.Hour
		default:
			b.MaxWall = 16 * time.Hour
		}
	}
	return b
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
	// pressureCritical: the queue is held and the largest running job
	// is cooperatively preempted (paused at a quiescent boundary, image
	// persisted, re-enqueued) until the heap falls back below the
	// critical watermark. Jobs are never killed.
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
		s.preemptLargest()
	}
}

// preemptLargest requests cooperative preemption of the best victim
// among the running jobs, if any. The request is a flag the executing
// worker polls at its next quiescent pause boundary: the job persists
// its image there and re-enqueues (runJob's ErrPreempted path). No-op
// while draining, without a journal (no image plane to persist into),
// or when every running job is already marked.
func (s *Server) preemptLargest() bool {
	if s.jnl == nil || s.Draining() {
		return false
	}
	s.mu.Lock()
	v := s.pickVictimLocked()
	if v != nil {
		v.preemptReq.Store(true)
		s.reg.Counter("serve.pressure.preempt_requests").Inc()
	}
	s.mu.Unlock()
	if v != nil {
		s.logf("preempting job %s (est %dMiB)", v.ID, v.Budget.EstBytes>>20)
	}
	return v != nil
}

// pickVictimLocked selects the preemption victim among running,
// preemptable jobs: the largest estimated memory (the point of
// preempting is to free the most), then the youngest start (least
// progress thrown to disk), then job ID for determinism. Only run
// requests are preemptable — a sweep's machines have no single
// quiescent pause boundary; sweeps stay bounded by their wall budget
// instead. Called with mu held.
func (s *Server) pickVictimLocked() *Job {
	var v *Job
	for _, j := range s.jobs {
		if j.Status != StatusRunning || j.Req.Kind != KindRun || j.preemptReq.Load() {
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
	if a.Budget.EstBytes != b.Budget.EstBytes {
		return a.Budget.EstBytes > b.Budget.EstBytes
	}
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

// admitGovernedLocked applies the memory-governance admission checks to
// a fresh (non-coalesced, non-cached) submission and fills in its
// budget. Called with mu held; returns the admission error, if any.
func (s *Server) admitGovernedLocked(j *Job) error {
	if !s.governed() {
		return nil
	}
	j.Budget = estimateBudget(j.Req)
	if j.Budget.EstBytes > s.cfg.MemBudget {
		s.reg.Counter("serve.rejected.over_budget").Inc()
		return fmt.Errorf("%w (estimated %dMiB, budget %dMiB)",
			ErrOverBudget, j.Budget.EstBytes>>20, s.cfg.MemBudget>>20)
	}
	if s.committed+j.Budget.EstBytes > s.cfg.MemBudget {
		// Commitment shedding: the admitted-but-unsettled working set
		// alone would exceed the budget. Unlike the heap watermarks this
		// trips before the memory is ever allocated — it is the first
		// line of defense for a burst of large jobs on an idle daemon.
		s.reg.Counter("serve.pressure.sheds").Inc()
		return fmt.Errorf("%w (committed %dMiB + estimated %dMiB over %dMiB budget)",
			ErrPressure, s.committed>>20, j.Budget.EstBytes>>20, s.cfg.MemBudget>>20)
	}
	if level := s.level(); level >= pressureShed {
		s.reg.Counter("serve.pressure.sheds").Inc()
		return fmt.Errorf("%w (level %s)", ErrPressure, level)
	}
	return nil
}
