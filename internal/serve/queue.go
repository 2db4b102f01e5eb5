package serve

import "sync"

// Queue lanes. Interactive jobs are dispatched before batch jobs and
// are the last candidates for preemption; batch is the default. The
// lane is client-settable per request (execution-only: it orders the
// queue, never changes simulation output, and is excluded from the
// cache key).
const (
	LaneBatch       = 0
	LaneInteractive = 1
)

// laneName renders a lane for views and logs.
func laneName(lane int) string {
	if lane == LaneInteractive {
		return "interactive"
	}
	return "batch"
}

// laneQueue is the worker feed: a two-lane FIFO with a condition
// variable instead of a channel, so the scheduler can order by priority
// lane, re-admit preempted jobs, and hold the batch lane closed while
// the host is under critical memory pressure.
//
// Admission bounds are NOT enforced here — the server checks depth
// before pushing (and recovery may legally exceed the configured bound).
type laneQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	lanes  [2][]*Job // index: LaneBatch, LaneInteractive
	closed bool
	hold   bool // batch lane paused (critical pressure); void once closed
}

func newLaneQueue() *laneQueue {
	q := &laneQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues j on its lane. Returns false if the queue is closed
// (draining) — the caller keeps responsibility for the job.
func (q *laneQueue) push(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	lane := j.Lane
	if lane != LaneInteractive {
		lane = LaneBatch
	}
	q.lanes[lane] = append(q.lanes[lane], j)
	q.cond.Signal()
	return true
}

// pop blocks for the next job: interactive lane first, then batch
// (unless held). After close the backlog — both lanes, hold ignored —
// drains before pop reports (nil, false), mirroring a closed channel.
func (q *laneQueue) pop() (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if len(q.lanes[LaneInteractive]) > 0 {
			return q.takeLocked(LaneInteractive), true
		}
		if len(q.lanes[LaneBatch]) > 0 && (!q.hold || q.closed) {
			return q.takeLocked(LaneBatch), true
		}
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
}

func (q *laneQueue) takeLocked(lane int) *Job {
	j := q.lanes[lane][0]
	q.lanes[lane][0] = nil // no liveness leak through the backing array
	q.lanes[lane] = q.lanes[lane][1:]
	return j
}

// len reports the queued job count across both lanes.
func (q *laneQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.lanes[LaneBatch]) + len(q.lanes[LaneInteractive])
}

// close stops admission into the queue and wakes every popper; the
// remaining backlog still drains (the drain contract: accepted jobs are
// never dropped). Idempotent.
func (q *laneQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// setHold pauses (true) or resumes (false) dispatch from the batch
// lane. The interactive lane is never held, and a closed queue ignores
// holds so a drain can never deadlock behind a pressure gate.
func (q *laneQueue) setHold(hold bool) {
	q.mu.Lock()
	if q.hold != hold {
		q.hold = hold
		if !hold {
			q.cond.Broadcast()
		}
	}
	q.mu.Unlock()
}

// held reports whether the batch lane is currently gated.
func (q *laneQueue) held() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.hold && !q.closed
}
