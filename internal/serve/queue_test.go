package serve

import (
	"testing"
	"time"
)

// popped pops in a goroutine and returns the result channel, so tests
// can assert both "pops promptly" and "stays blocked".
func popped(q *jobQueue) <-chan *Job {
	ch := make(chan *Job, 1)
	go func() {
		j, ok := q.pop()
		if !ok {
			j = nil
		}
		ch <- j
	}()
	return ch
}

func mustPop(t *testing.T, q *jobQueue) *Job {
	t.Helper()
	select {
	case j := <-popped(q):
		return j
	case <-time.After(5 * time.Second):
		t.Fatal("pop did not return")
		return nil
	}
}

// TestLaneQueueHold: a held queue blocks dispatch, and releasing the
// hold wakes the blocked popper, which takes the backlog in FIFO order.
func TestLaneQueueHold(t *testing.T) {
	q := newJobQueue()
	q.push(&Job{ID: "j1"})
	q.push(&Job{ID: "j2"})
	q.setHold(true)
	if !q.held() {
		t.Fatal("held() = false after setHold(true)")
	}
	ch := popped(q)
	select {
	case j := <-ch:
		t.Fatalf("held queue dispatched %v", j)
	case <-time.After(50 * time.Millisecond):
	}
	q.setHold(false)
	select {
	case j := <-ch:
		if j.ID != "j1" {
			t.Fatalf("popped %s after release, want j1", j.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("releasing the hold did not wake the popper")
	}
	if got := mustPop(t, q); got.ID != "j2" {
		t.Fatalf("second pop = %s, want j2", got.ID)
	}
}

// TestLaneQueueCloseDrainsBacklog: close() stops admission (push
// returns false) but the backlog — held or not — still drains before
// pop reports closed. The drain contract must beat the pressure gate,
// or a drain under critical pressure would deadlock.
func TestLaneQueueCloseDrainsBacklog(t *testing.T) {
	q := newJobQueue()
	q.push(&Job{ID: "j1"})
	q.push(&Job{ID: "j2"})
	q.setHold(true)
	q.close()
	if q.push(&Job{ID: "late"}) {
		t.Fatal("push succeeded on a closed queue")
	}
	if q.held() {
		t.Fatal("held() = true on a closed queue (drain must ignore holds)")
	}
	for _, want := range []string{"j1", "j2"} {
		if got := mustPop(t, q); got.ID != want {
			t.Fatalf("drained %s, want %s (hold ignored after close)", got.ID, want)
		}
	}
	j, ok := q.pop()
	if ok || j != nil {
		t.Fatalf("pop on a drained closed queue = (%v, %v), want (nil, false)", j, ok)
	}
	q.close() // idempotent
}
