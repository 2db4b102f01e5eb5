package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"time"
)

// This file is the job state machine. A job's journaled life is
//
//	accepted → (started | preempted)* → (done | failed | canceled)
//
// and the journal record IS the transition: the live path applies a
// record to the Job under the server mutex and then appends it, replay
// applies the very same records with the very same two functions.
// advanceLocked is the non-terminal half, settleLocked the terminal half;
// nothing else moves a job between states.

// JobStatus is a job's lifecycle state.
type JobStatus string

const (
	StatusQueued   JobStatus = "queued"
	StatusRunning  JobStatus = "running"
	StatusDone     JobStatus = "done"
	StatusFailed   JobStatus = "failed"
	StatusCanceled JobStatus = "canceled"
)

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Job is one accepted request's record. Mutable fields are guarded by
// the owning Server's mutex; done is closed exactly once when the job
// reaches a terminal status.
type Job struct {
	ID  string
	Key string
	Req *Request // canonical form

	Status   JobStatus
	Cached   bool // served from the result cache without simulating
	Err      string
	Result   *Result
	Created  time.Time
	Started  time.Time // start of the current (or last) execution lease
	Finished time.Time
	Wall     time.Duration // host run time over every lease (0 for cache hits)

	// Durable-plane state. Attempt counts execution leases taken on
	// this job (journaled, so it survives restarts); Ckpt is the cycle
	// of the last checkpoint image the run saved or resumed from (the
	// image is that progress's only record: across a restart Ckpt is the
	// cycle a preempted record carried); Recovered marks jobs
	// rebuilt from the journal after a crash; Failure carries the
	// structured diagnosis when the plane gave up on the job.
	Attempt   int
	Ckpt      uint64
	Recovered bool
	Failure   *JobError

	// Governance state. Preempted marks a job currently re-queued after
	// a preemption, whose next lease resumes the preempted attempt
	// instead of burning a new one; Preempts counts preemptions this
	// process has applied to the job.
	Preempted bool
	Preempts  int

	seq    int // the sequence number in ID ("j17-…"): listing and compaction order
	ctx    context.Context
	cancel context.CancelCauseFunc
	done   chan struct{}

	// view is a cache-hit record's response body, encodeJSON of its
	// View(j, true), rendered once when admitLocked makes the record and
	// never changed after; nil for every other job.
	view []byte

	// lease cancels the execution lease this job holds, nil when it
	// holds none or its lease is already preempted (preemptVictim).
	lease context.CancelCauseFunc

	// refs counts live waiters. A job submitted synchronously (detached
	// == false) whose last waiter disconnects before completion is
	// canceled — the client-disconnect abort path. Detached jobs
	// (async submissions) always run to completion.
	refs     int
	detached bool
}

// Done returns the completion channel.
func (j *Job) Done() <-chan struct{} { return j.done }

// Journal record operations. The three terminal ops are the three
// terminal status strings, so a terminal record's op is string(j.Status)
// and a replayed one needs no mapping back.
const (
	opAccepted  = "accepted"
	opStarted   = "started"   // an execution lease: Attempt
	opPreempted = "preempted" // parked behind its image at Cycle; the next started resumes the same attempt
	opDone      = string(StatusDone)
	opFailed    = string(StatusFailed)
	opCanceled  = string(StatusCanceled)
)

// jrec is one journal record. Payload integrity (length + CRC framing,
// torn-tail truncation) is the journal package's job; this layer only
// defines the schema. The accepted record doubles as the compaction
// form: rotation folds a job's attempt count, parked state and the cycle
// its preempted record carried back into it so a compacted journal
// replays to the same state. Checkpoints are not journaled: the image
// file is their record, and restore finds it by key. Replay ignores the
// checkpoint records older journals hold.
type jrec struct {
	Op        string   `json:"op"`
	ID        string   `json:"id"`
	Key       string   `json:"key,omitempty"`
	Req       *Request `json:"req,omitempty"`
	Attempt   int      `json:"attempt,omitempty"`
	Cycle     uint64   `json:"cycle,omitempty"`
	Error     string   `json:"error,omitempty"`
	Reason    string   `json:"reason,omitempty"`    // failed only: JobError.Reason (absent in older journals)
	Preempted bool     `json:"preempted,omitempty"` // accepted (compaction fold) only
}

// JobError failure reasons.
const (
	ReasonRetries    = "retries-exhausted"
	ReasonDeadline   = "deadline-exceeded"
	ReasonBudget     = "budget-exceeded" // the run hit its cycle limit: deterministic, never retried
	ReasonNotDurable = "not-durable"     // the accepted record did not reach the journal (ErrNotDurable)
)

// JobError is the structured terminal diagnosis of a job that the
// durable plane gave up on: retries exhausted, the per-job deadline hit,
// or the cycle limit reached. It is errors.As-reachable from the job's
// terminal error (and from Job.Failure), wraps the last attempt's error,
// and is journaled so the verdict survives restarts — a job never just
// vanishes.
type JobError struct {
	ID       string
	Key      string
	Reason   string // ReasonRetries, ReasonDeadline, ReasonNotDurable, or ReasonBudget
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

// replayedErr is a terminal error restored from the journal: the text is
// the recorded one, and class is what settleLocked classifies it by —
// context.Canceled for a canceled record, the *JobError for a failed
// record that carries a reason.
type replayedErr struct {
	text  string
	class error
}

func (e *replayedErr) Error() string { return e.text }
func (e *replayedErr) Unwrap() error { return e.class }

// advanceLocked is the non-terminal half of the state machine: it
// applies one accepted/started/preempted record to j and ignores any
// other op. Attempt and Ckpt only grow (records of one job may replay
// out of order around a compaction fold); a started record is a lease
// taking over, so it clears the parked state a preempted record set.
// Called with mu held — by step on the live path, by recover on the
// replayed one.
func advanceLocked(j *Job, r jrec) {
	if j.Status.Terminal() {
		return // a settled job stays settled, whatever the file says next
	}
	switch r.Op {
	case opAccepted:
		j.Status = StatusQueued
		j.Attempt, j.Ckpt = r.Attempt, r.Cycle
		j.Preempted = r.Preempted
	case opStarted:
		j.Status = StatusRunning
		j.Attempt = max(j.Attempt, r.Attempt)
		j.Preempted = false
	case opPreempted:
		// Parked, not mid-lease: the next lease resumes this attempt
		// rather than burning a new one — in this process or, when the
		// record is all that survives a crash, in the next.
		j.Status = StatusQueued
		j.Ckpt = max(j.Ckpt, r.Cycle)
		j.Preempted = true
	}
}

// step makes one non-terminal transition on the live path: apply the
// record, then journal it (fsync outside mu). Applying first is what
// lets a reader that saw the journaled record trust the job's state.
func (s *Server) step(j *Job, r jrec) {
	s.mu.Lock()
	advanceLocked(j, r)
	s.mu.Unlock()
	s.journalAppend(r)
}

// settleLocked is the terminal half and the only place a job becomes
// terminal: res/err classify into done, failed or canceled, the key's
// slot is released, a failure evicts the oldest beyond keptFailures from
// the table, done is closed and the job's context released — exactly
// once; settling a terminal job is a no-op that reports false. Called
// with mu held, by settle, by the cache-hit admission, and by recover
// for every verdict it restores or reaches.
func (s *Server) settleLocked(j *Job, res *Result, err error) bool {
	if j.Status.Terminal() {
		return false
	}
	var je *JobError
	switch {
	case err == nil:
		j.Status = StatusDone
		j.Result = res
		s.reg.Counter("serve.jobs.completed").Inc()
	case errors.As(err, &je):
		// The durable plane's verdict (retries exhausted, deadline hit,
		// not durable) outranks the cancellation sentinels it may ride with.
		j.Status = StatusFailed
		j.Failure = je
		s.reg.Counter("serve.jobs.failed").Inc()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.Status = StatusCanceled
		s.reg.Counter("serve.jobs.canceled").Inc()
	default:
		j.Status = StatusFailed
		s.reg.Counter("serve.jobs.failed").Inc()
	}
	if err != nil {
		j.Err = err.Error()
	}
	j.Finished = time.Now()
	if j.Wall > 0 {
		s.reg.Histogram("serve.job.wall_ms").Observe(uint64(j.Wall.Milliseconds())) // jobs that held a lease
	}
	if s.keys[j.Key] == j {
		delete(s.keys, j.Key)
	}
	if j.Status != StatusDone {
		if s.failures = append(s.failures, j); len(s.failures) > keptFailures {
			delete(s.jobs, s.failures[0].ID)
			s.failures = slices.Delete(s.failures, 0, 1)
		}
	}
	// The verdict is decided, so nothing reads the context's cause again;
	// canceling it detaches the job from the server's base context before
	// any waiter wakes.
	j.cancel(errSettled)
	close(j.done)
	return true
}

// errSettled is the cause a settled job's context is canceled with.
var errSettled = errors.New("serve: job settled")

// settle is the live path's terminal transition: settleLocked, then the
// terminal record. Like every record after accepted, a failed append
// only degrades to the counter.
func (s *Server) settle(j *Job, res *Result, err error) {
	s.mu.Lock()
	settled := s.settleLocked(j, res, err)
	r := terminalRec(j)
	s.mu.Unlock()
	if settled {
		s.journalAppend(r)
	}
}

// terminalRec renders a settled job's terminal record.
func terminalRec(j *Job) jrec {
	r := jrec{Op: string(j.Status), ID: j.ID, Error: j.Err}
	if j.Failure != nil {
		r.Reason = j.Failure.Reason
	}
	return r
}

// journalAppend marshals and appends one record, fsync'd, and counts it.
// Only Submit acts on the error: an accepted record that did not land
// breaks the promise a 202 makes. Every later record costs recovery
// fidelity after a crash, never the running job, so its callers let the
// failure degrade to serve.journal.append_errors.
func (s *Server) journalAppend(r jrec) error {
	if s.jnl == nil {
		return nil
	}
	b, err := json.Marshal(&r)
	if err == nil {
		err = s.jnl.Append(b)
	}
	if err != nil {
		s.count("serve.journal.append_errors")
	} else {
		s.count("serve.journal.appends")
	}
	return err
}

// recover replays journal payloads into job records on the (not yet
// started, so effectively locked) server, through the same two halves
// the live path uses. Two passes: accepted records create the jobs,
// then every other record is applied — appends from concurrent workers
// may legally land a started record ahead of its accepted record in the
// file. Records for IDs with no accepted record are dropped: the
// submission was never acknowledged, so there is nothing to honor.
//
// A job's first terminal record decides it where the file has it: done
// retires the job — it never enters the table, no cache entry is read,
// and resubmitting it is a hit — and failed or canceled settles it, so
// the failure window evicts as the recording process did. Each job left
// unsettled then settles or re-enqueues, first rule that applies:
//   - the result cache has the key → the job finished; the crash beat
//     the terminal record. Settle done (dedupe: never re-simulate).
//   - attempts ≥ MaxRetries → every lease expired; fail with a JobError
//     rather than retrying a poison job forever.
//   - otherwise → re-enqueue; whatever lease it held died with the old
//     process, its attempt count and parked state carry over.
//
// Re-enqueued jobs are pushed in submission order, past the bound.
func (s *Server) recover(payloads [][]byte) {
	jobs := make(map[string]*Job) // replayed jobs not (yet) retired
	var order []*Job
	for _, p := range payloads {
		var r jrec
		if json.Unmarshal(p, &r) != nil || r.Op != opAccepted || r.ID == "" || r.Req == nil || jobs[r.ID] != nil {
			continue
		}
		c, err := r.Req.Canonicalize()
		if err != nil {
			// A schema change made the persisted request unreadable; there
			// is no simulation to honor under the new schema.
			continue
		}
		j := &Job{
			ID: r.ID, Key: c.Key(), Req: c,
			// The journal records no admission time: a recovered job's
			// deadline clock restarts at this boot.
			Created:   time.Now(),
			Recovered: true,
			detached:  true, // whoever was waiting died with the old process
		}
		// The ID counter continues past the journal's IDs ("j17-…").
		if _, err := fmt.Sscanf(r.ID, "j%d-", &j.seq); err == nil {
			s.seq = max(s.seq, j.seq)
		}
		advanceLocked(j, r)
		jobs[r.ID] = j
		order = append(order, j)
	}
	settleRecorded := func(j *Job, err error) {
		s.registerLocked(j)
		s.settleLocked(j, nil, err)
	}
	replayed := 0
	for _, p := range payloads {
		var r jrec
		if json.Unmarshal(p, &r) != nil {
			continue
		}
		replayed++
		switch j := jobs[r.ID]; {
		case j == nil || r.Op == opAccepted || j.Status.Terminal():
			// Unknown, already applied, or past the job's first verdict.
		case r.Op == opDone:
			delete(jobs, r.ID) // retired: it never enters the table
		case r.Op == opCanceled:
			settleRecorded(j, &replayedErr{r.Error, context.Canceled})
		case r.Op == opFailed && r.Reason != "":
			settleRecorded(j, &replayedErr{r.Error, &JobError{ID: j.ID, Key: j.Key, Reason: r.Reason, Attempts: j.Attempt}})
		case r.Op == opFailed:
			settleRecorded(j, errors.New(r.Error))
		default:
			advanceLocked(j, r)
		}
	}
	s.reg.Counter("serve.journal.replayed").Set(uint64(replayed))

	for _, j := range order {
		if jobs[j.ID] == nil || j.Status.Terminal() {
			continue // retired, or settled by its recorded verdict
		}
		s.registerLocked(j)
		// Get (not a file probe) so the dedupe verifies the entry's
		// digest: a torn cache entry must re-run, not satisfy the job.
		_, cached := s.cache.Get(j.Key)
		switch {
		case cached:
			// Finished before the crash; only the terminal record was lost.
			s.reg.Counter("serve.resume.deduped").Inc()
			s.settleLocked(j, &Result{ChecksumOK: true}, nil)
		case j.Attempt >= s.cfg.MaxRetries && !j.Preempted:
			// A parked job is not poison: its resume lease continues the
			// attempt its preemption interrupted.
			s.reg.Counter("serve.resume.failed").Inc()
			s.settleLocked(j, nil, &JobError{ID: j.ID, Key: j.Key, Reason: ReasonRetries, Attempts: j.Attempt})
		case s.keys[j.Key] != nil:
			// Two live journaled jobs with one key cannot normally happen
			// (single-flight); settle the duplicate rather than racing it.
			s.settleLocked(j, nil, &replayedErr{"serve: duplicate journaled job coalesced at recovery", context.Canceled})
		default:
			j.Status = StatusQueued // a replayed lease is a dead one
			s.keys[j.Key] = j
			s.reg.Counter("serve.resume.jobs").Inc()
			s.queue.push(j)
		}
	}
}

// keptFailures is how many failed or canceled jobs, the newest settled,
// the job table keeps, live and across a restart: a failure has no cache
// entry to stand for it.
const keptFailures = 64

// compactionRecords renders the job table recover left back into its
// minimal journal form: one accepted record per job in submission order
// (attempts, checkpoint cycle and parked state folded in), plus a kept
// failure's terminal record. A job recover deduped to done is left out.
func (s *Server) compactionRecords() [][]byte {
	var out [][]byte
	put := func(r jrec) {
		if b, err := json.Marshal(&r); err == nil {
			out = append(out, b)
		}
	}
	for _, j := range s.Jobs() {
		if j.Status == StatusDone {
			continue
		}
		put(jrec{Op: opAccepted, ID: j.ID, Key: j.Key, Req: j.Req, Attempt: j.Attempt, Cycle: j.Ckpt, Preempted: j.Preempted})
		if j.Status.Terminal() {
			put(terminalRec(j))
		}
	}
	return out
}
