package serve

import "sync"

// jobQueue is the worker feed: one FIFO with a condition variable
// instead of a channel, so the scheduler can re-admit preempted jobs and
// hold dispatch while the host is under critical memory pressure.
//
// Admission bounds are NOT enforced here — the server checks depth
// before pushing (and recovery may legally exceed the configured bound).
type jobQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	jobs   []*Job
	closed bool
	hold   bool // dispatch paused (critical pressure); void once closed
}

func newJobQueue() *jobQueue {
	q := &jobQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues j. Returns false if the queue is closed (draining) —
// the caller keeps responsibility for the job.
func (q *jobQueue) push(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.jobs = append(q.jobs, j)
	q.cond.Signal()
	return true
}

// pop blocks for the next job unless held. After close the backlog —
// hold ignored — drains before pop reports (nil, false), mirroring a
// closed channel.
func (q *jobQueue) pop() (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if len(q.jobs) > 0 && (!q.hold || q.closed) {
			j := q.jobs[0]
			q.jobs[0] = nil // no liveness leak through the backing array
			q.jobs = q.jobs[1:]
			return j, true
		}
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
}

// len reports the queued job count.
func (q *jobQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.jobs)
}

// close stops admission into the queue and wakes every popper; the
// remaining backlog still drains (the drain contract: accepted jobs are
// never dropped). Idempotent.
func (q *jobQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// setHold pauses (true) or resumes (false) dispatch. A closed queue
// ignores holds so a drain can never deadlock behind a pressure gate.
func (q *jobQueue) setHold(hold bool) {
	q.mu.Lock()
	if q.hold != hold {
		q.hold = hold
		if !hold {
			q.cond.Broadcast()
		}
	}
	q.mu.Unlock()
}

// held reports whether dispatch is currently gated.
func (q *jobQueue) held() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.hold && !q.closed
}
