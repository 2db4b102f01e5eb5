package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"misp/internal/core"
	"misp/internal/snap"
	"misp/internal/workloads"
)

// This file is the durability layer over the job queue: the journal
// record schema and startup replay (crash recovery with dedupe against
// the result cache), the structured JobError terminal diagnosis, the
// jittered retry backoff, and the checkpointing executor that arms
// core.SetPause every CheckpointCycles and persists snap images next to
// the journal so a restarted daemon resumes long runs mid-flight.

// Journal record operations. A job's journaled life is
// accepted → (started | checkpoint | preempted)* →
// (done | failed | canceled); replay reduces that history to a live or
// terminal job record. A preempted record marks a job parked back in
// the queue behind a persisted image; a later started record marks the
// resume lease.
const (
	opAccepted   = "accepted"
	opStarted    = "started"
	opCheckpoint = "checkpoint"
	opPreempted  = "preempted"
	opDone       = "done"
	opFailed     = "failed"
	opCanceled   = "canceled"
)

// jrec is one journal record. Payload integrity (length + CRC framing,
// torn-tail truncation) is the journal package's job; this layer only
// defines the schema. The accepted record doubles as the compaction
// form: rotation folds a job's attempt count and last checkpoint back
// into it so a compacted journal replays to the same state.
type jrec struct {
	Op        string   `json:"op"`
	ID        string   `json:"id"`
	Key       string   `json:"key,omitempty"`
	Req       *Request `json:"req,omitempty"`
	Attempt   int      `json:"attempt,omitempty"`
	Cycle     uint64   `json:"cycle,omitempty"`
	Error     string   `json:"error,omitempty"`
	Preempted bool     `json:"preempted,omitempty"` // accepted (compaction fold) only
}

// JobError failure reasons. ReasonBudget lives in governor.go.
const (
	ReasonRetries  = "retries-exhausted"
	ReasonDeadline = "deadline-exceeded"
)

// JobError is the structured terminal diagnosis of a job that the
// durable plane gave up on: retries exhausted, or the per-job deadline
// hit. It is errors.As-reachable from the job's terminal error (and
// from Job.Failure), wraps the last attempt's error, and is journaled
// so the verdict survives restarts — a job never just vanishes.
type JobError struct {
	ID       string
	Key      string
	Reason   string // ReasonRetries, ReasonDeadline, or ReasonBudget
	Attempts int
	Err      error // last attempt's error (nil when recovered from the journal)
}

func (e *JobError) Error() string {
	msg := fmt.Sprintf("serve: job %s failed: %s after %d attempt(s)", e.ID, e.Reason, e.Attempts)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *JobError) Unwrap() error { return e.Err }

// journalAppend marshals and appends one record, fsync'd. Failures
// degrade to a counter: losing a journal write costs recovery fidelity
// after a crash, never the running job.
func (s *Server) journalAppend(r jrec) {
	if s.jnl == nil {
		return
	}
	b, err := json.Marshal(&r)
	if err == nil {
		err = s.jnl.Append(b)
	}
	s.mu.Lock()
	if err != nil {
		s.reg.Counter("serve.journal.append_errors").Inc()
	} else {
		s.reg.Counter("serve.journal.appends").Inc()
	}
	s.mu.Unlock()
}

// journalTerminal records a job's terminal status (no-op for a
// non-terminal or journal-less job).
func (s *Server) journalTerminal(j *Job) {
	if s.jnl == nil {
		return
	}
	s.mu.Lock()
	var op string
	switch j.Status {
	case StatusDone:
		op = opDone
	case StatusFailed:
		op = opFailed
	case StatusCanceled:
		op = opCanceled
	}
	id, errStr := j.ID, j.Err
	s.mu.Unlock()
	if op != "" {
		s.journalAppend(jrec{Op: op, ID: id, Error: errStr})
	}
}

// replayJob is one job's state reduced from the journal.
type replayJob struct {
	rec       jrec // the accepted record
	attempts  int
	ckpt      uint64
	preempted bool   // last lease ended in preemption (no started since)
	terminal  string // terminal op, "" while live
	errStr    string
}

// jobSeq extracts the numeric sequence from a job ID ("j17-abcd…" →
// 17) so a restarted server's ID counter continues past recovered IDs.
var jobSeq = regexp.MustCompile(`^j(\d+)-`)

// recover replays journal payloads into job records on the (not yet
// started) server. Two passes: accepted records first, then the
// per-job transitions — appends from concurrent workers may legally
// land a started record ahead of its accepted record in the file.
// Records for IDs with no accepted record are dropped: the submission
// was never acknowledged, so there is nothing to honor.
//
// The reduction per live job:
//   - result cache already has the key → the job finished; the crash
//     beat the terminal record. Mark done (dedupe: never re-simulate,
//     never duplicate).
//   - attempts ≥ MaxRetries → every lease expired; fail with a
//     JobError rather than retrying a poison job forever.
//   - otherwise → re-enqueue with the attempt count preserved.
//
// Returns the jobs to enqueue, in original submission order.
func (s *Server) recover(payloads [][]byte) []*Job {
	states := make(map[string]*replayJob)
	var order []string
	for _, p := range payloads {
		var r jrec
		if json.Unmarshal(p, &r) != nil || r.Op != opAccepted || r.ID == "" || r.Req == nil {
			continue
		}
		if _, dup := states[r.ID]; dup {
			continue
		}
		states[r.ID] = &replayJob{rec: r, attempts: r.Attempt, ckpt: r.Cycle, preempted: r.Preempted}
		order = append(order, r.ID)
	}
	replayed := 0
	for _, p := range payloads {
		var r jrec
		if json.Unmarshal(p, &r) != nil {
			continue
		}
		replayed++
		st := states[r.ID]
		if st == nil {
			continue
		}
		switch r.Op {
		case opStarted:
			if r.Attempt > st.attempts {
				st.attempts = r.Attempt
			}
			st.preempted = false // a resume lease took over
		case opCheckpoint:
			if r.Cycle > st.ckpt {
				st.ckpt = r.Cycle
			}
		case opPreempted:
			st.preempted = true
			if r.Cycle > st.ckpt {
				st.ckpt = r.Cycle
			}
		case opDone, opFailed, opCanceled:
			st.terminal, st.errStr = r.Op, r.Error
		}
	}

	var enqueue []*Job
	for _, id := range order {
		st := states[id]
		c, err := st.rec.Req.Canonicalize()
		if err != nil {
			// A schema change made the persisted request unreadable; there
			// is no simulation to honor under the new schema.
			continue
		}
		if m := jobSeq.FindStringSubmatch(id); m != nil {
			if n, err := strconv.Atoi(m[1]); err == nil && n > s.seq {
				s.seq = n
			}
		}
		j := &Job{
			ID:        id,
			Key:       c.Key(),
			Req:       c,
			Lane:      laneOf(c),
			Created:   time.Now(),
			Attempt:   st.attempts,
			Ckpt:      st.ckpt,
			Recovered: true,
			// A job parked by preemption at crash time was not mid-lease:
			// its next lease resumes the old attempt rather than burning a
			// new one, exactly as it would have in the dead process.
			Preempted: st.preempted,
			resume:    st.preempted,
			done:      make(chan struct{}),
			detached:  true, // whoever was waiting died with the old process
		}
		j.ctx, j.cancel = context.WithCancelCause(s.baseCtx)
		s.jobs[id] = j
		s.order = append(s.order, id)
		// Peek (not Contains) so the dedupe verifies the entry's manifest:
		// a torn cache entry must re-run, not satisfy the job.
		_, cached := s.cache.Peek(j.Key)
		switch {
		case st.terminal != "":
			j.Status = map[string]JobStatus{opDone: StatusDone, opFailed: StatusFailed, opCanceled: StatusCanceled}[st.terminal]
			j.Err = st.errStr
			if j.Status == StatusDone {
				j.Result = &Result{ChecksumOK: true}
			}
			close(j.done)
		case cached:
			// Finished before the crash; only the terminal record was lost.
			j.Status = StatusDone
			j.Result = &Result{ChecksumOK: true}
			s.reg.Counter("serve.resume.deduped").Inc()
			close(j.done)
		case st.attempts >= s.cfg.MaxRetries:
			je := &JobError{ID: id, Key: j.Key, Reason: ReasonRetries, Attempts: st.attempts}
			j.Status = StatusFailed
			j.Failure = je
			j.Err = je.Error()
			s.reg.Counter("serve.resume.failed").Inc()
			close(j.done)
		case s.inflight[j.Key] != nil:
			// Two live journaled jobs with one key cannot normally happen
			// (single-flight); settle the duplicate rather than racing it.
			j.Status = StatusCanceled
			j.Err = "serve: duplicate journaled job coalesced at recovery"
			close(j.done)
		default:
			j.Status = StatusQueued
			s.inflight[j.Key] = j
			if s.governed() {
				j.Budget = estimateBudget(c)
				s.committed += j.Budget.EstBytes
			}
			s.reg.Counter("serve.resume.jobs").Inc()
			enqueue = append(enqueue, j)
		}
	}
	s.reg.Counter("serve.journal.replayed").Set(uint64(replayed))
	return enqueue
}

// compactionRecords renders the full job table back into its minimal
// journal form for rotation: one accepted record per job (attempts and
// last checkpoint folded in), plus the terminal record where one
// exists.
func (s *Server) compactionRecords() [][]byte {
	var out [][]byte
	put := func(r jrec) {
		if b, err := json.Marshal(&r); err == nil {
			out = append(out, b)
		}
	}
	for _, id := range s.order {
		j := s.jobs[id]
		put(jrec{Op: opAccepted, ID: j.ID, Key: j.Key, Req: j.Req, Attempt: j.Attempt, Cycle: j.Ckpt, Preempted: j.Preempted})
		switch j.Status {
		case StatusDone:
			put(jrec{Op: opDone, ID: j.ID})
		case StatusFailed:
			put(jrec{Op: opFailed, ID: j.ID, Error: j.Err})
		case StatusCanceled:
			put(jrec{Op: opCanceled, ID: j.ID, Error: j.Err})
		}
	}
	return out
}

// sleepBackoff waits out the jittered exponential backoff before retry
// `attempt+1`: base·2^(attempt−1), jittered uniformly over ±50%, capped
// at 32·base. Returns false if ctx is canceled first — a dying job does
// not sit out its backoff.
func sleepBackoff(ctx context.Context, base time.Duration, attempt int) bool {
	if attempt > 5 {
		attempt = 6 // 2^5 = 32·base cap
	}
	d := base << (attempt - 1)
	d = d/2 + rand.N(d) // uniform in [d/2, 3d/2)
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}

// ErrPreempted reports that a run yielded cooperatively at a quiescent
// pause boundary after a preemption request: its image is persisted (or
// an older image remains usable) and the caller must re-enqueue the job
// to resume later. Never returned for completed or failed runs.
var ErrPreempted = errors.New("serve: job preempted at quiescent boundary")

// CheckpointSpec configures ExecuteCheckpointed: where images live,
// how often they are taken, the preemption poll, and the hooks the
// server uses to journal and count checkpoint traffic. The zero value
// disables checkpointing.
type CheckpointSpec struct {
	Dir   string // checkpoint images live here, next to the journal
	Every uint64 // simulated cycles between checkpoints (0 = off)

	// Quantum is the pause-slice cadence in simulated cycles: the run
	// reaches a quiescent boundary at least this often and polls Preempt
	// there. 0 falls back to Every (pause only at checkpoint boundaries).
	Quantum uint64
	// Preempt is polled at every quiescent boundary; returning true
	// persists an image at the current cycle and aborts the lease with
	// ErrPreempted. nil never preempts.
	Preempt func() bool
	// MaxCycles tightens the machine's cycle-limit abort to the job's
	// admission budget (0 = leave the workload default).
	MaxCycles uint64

	OnCheckpoint func(cycle uint64) // after an image is durably persisted
	OnRestore    func(cycle uint64) // resumed from an image at this cycle
	OnCorrupt    func(err error)    // an unusable image was discarded
}

func (cs *CheckpointSpec) enabled() bool {
	return cs != nil && cs.Dir != "" && (cs.Every > 0 || (cs.Quantum > 0 && cs.Preempt != nil))
}

// stride is the pause cadence: the tighter of Quantum and Every.
func (cs *CheckpointSpec) stride() uint64 {
	if cs.Quantum > 0 && (cs.Every == 0 || cs.Quantum < cs.Every) {
		return cs.Quantum
	}
	return cs.Every
}

// checkpointPath is the image location for one canonical request. Keyed
// on the cache key: execution-only knobs are run-only config, so an
// image is resumable by any request that hashes to the same simulation.
func (cs *CheckpointSpec) path(key string) string {
	return filepath.Join(cs.Dir, "ckpt-"+key+".misp")
}

// ExecuteCheckpointed is ExecuteWarm with periodic mid-run checkpoints
// for run requests: the simulation pauses every cs.Every cycles at a
// quiescent SetPause boundary, a snap image is persisted atomically,
// and execution continues. If an image for the request already exists
// (a previous attempt or process died mid-run), execution resumes from
// it instead of starting over; the snap plane's determinism contract
// makes the artifacts byte-identical to an uninterrupted run either
// way. An unreadable or stale image is discarded and the run starts
// cold — corrupt state can degrade performance, never correctness.
//
// Sweep requests pass through to ExecuteWarm: their grid points are
// individually short, so the journal's retry lease is their recovery
// story.
func ExecuteCheckpointed(ctx context.Context, c *Request, warm *workloads.WarmPool, cs *CheckpointSpec) (Artifacts, *Result, error) {
	if !cs.enabled() || c.Kind != KindRun {
		return ExecuteWarm(ctx, c, warm)
	}
	w, size, cfg, err := runSetup(c)
	if err != nil {
		return nil, nil, err
	}
	if cs.MaxCycles > 0 && (cfg.MaxCycles == 0 || cs.MaxCycles < cfg.MaxCycles) {
		// The admission cycle budget composes with the workload's own
		// deadlock guard: whichever is tighter aborts the run (MaxCycles
		// is run-only config, so this never perturbs image identity).
		cfg.MaxCycles = cs.MaxCycles
	}

	ckpt := cs.path(c.Key())
	var pr *workloads.Prepared
	if img, lerr := snap.LoadFile(ckpt); lerr == nil {
		m, k, ferr := img.Fork(func(cc *core.Config) { *cc = cfg })
		if ferr == nil {
			if pr, ferr = workloads.Resume(w, c.mode(), m, k); ferr == nil && cs.OnRestore != nil {
				cs.OnRestore(m.MaxClock())
			}
		}
		if ferr != nil {
			pr = nil
			if cs.OnCorrupt != nil {
				cs.OnCorrupt(ferr)
			}
			os.Remove(ckpt)
		}
	} else if !errors.Is(lerr, os.ErrNotExist) {
		if cs.OnCorrupt != nil {
			cs.OnCorrupt(lerr)
		}
		os.Remove(ckpt)
	}
	if pr == nil {
		if pr, err = warm.Prepare(w, c.mode(), cfg, size, 0); err != nil {
			return nil, nil, err
		}
	}
	// Every exit below — done, failed, preempted — is finished with the
	// machine: its image, if any, is on disk and its artifacts rendered.
	defer pr.Release()

	// The run proceeds in pause slices: every stride() cycles the machine
	// stops at a quiescent boundary, where the loop checks the preemption
	// poll and the checkpoint cadence. Preemption forces an image at the
	// current cycle and aborts the lease with ErrPreempted — even when
	// the capture fails, since the previous image (or a cold start) still
	// resumes to byte-identical artifacts; only the paid cycles are lost.
	var res *workloads.RunResult
	var nextCkpt uint64
	if cs.Every > 0 {
		nextCkpt = pr.Machine.MaxClock() + cs.Every
	}
	for {
		pr.Machine.SetPause(pr.Machine.MaxClock() + cs.stride())
		res, err = pr.RunCtx(ctx)
		if err == nil {
			break
		}
		if !errors.Is(err, core.ErrPaused) {
			// Leave the last image in place: a retry or a restarted daemon
			// resumes from it instead of repaying the simulated cycles.
			return nil, nil, err
		}
		clock := pr.Machine.MaxClock()
		preempt := cs.Preempt != nil && cs.Preempt()
		if preempt || (cs.Every > 0 && clock >= nextCkpt) {
			img, cerr := snap.Capture(pr.Machine, pr.Kernel)
			if cerr == nil {
				// A failed capture degrades the checkpoint cadence (or the
				// preemption resume point), never the run.
				if serr := img.SaveFile(ckpt); serr == nil && cs.OnCheckpoint != nil {
					cs.OnCheckpoint(clock)
				}
			}
			for nextCkpt != 0 && nextCkpt <= clock {
				nextCkpt += cs.Every
			}
		}
		if preempt {
			return nil, nil, ErrPreempted
		}
	}
	pr.Machine.SetPause(0)
	art, result, err := runArtifacts(c, w, size, cfg, res)
	if err != nil {
		return nil, nil, err
	}
	os.Remove(ckpt) // the run is complete; the image is dead weight
	return art, result, nil
}
