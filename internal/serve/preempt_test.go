package serve

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"misp/internal/journal"
)

// waitCond polls cond (which may take the server lock) until true.
func waitCond(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitParked waits until j is preempted and back in s's queue.
func waitParked(t *testing.T, s *Server, j *Job) {
	t.Helper()
	waitCond(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return j.Preempted && s.queue.len() == 1
	}, "job was never parked")
}

// preemptingExec is s's execution path with one preemption built in:
// the first checkpoint callback of any lease preempts the running job
// through preemptVictim and then calls then. The machine has run
// CheckpointCycles and saved an image by that point, so the preemption
// lands mid-run, deterministically, and its image is taken after cycle
// 0. then is where a test holds the queue or starts a drain before the
// run returns ErrPreempted; it runs on the worker, so it must not call
// t.Fatal.
func preemptingExec(s *Server, then func()) func(context.Context, *Job) (Artifacts, *Result, error) {
	var once sync.Once
	return func(ctx context.Context, j *Job) (Artifacts, *Result, error) {
		cs := s.checkpointSpec(j)
		saved := cs.OnCheckpoint
		cs.OnCheckpoint = func(cycle uint64) {
			saved(cycle)
			once.Do(func() {
				s.preemptVictim()
				then()
			})
		}
		return ExecuteCheckpointed(ctx, j.Req, nil, cs)
	}
}

// --- victim selection -------------------------------------------------

func victim(id string, started time.Time) *Job {
	return &Job{
		ID: id, Started: started,
		Status: StatusRunning, Req: &Request{Kind: KindRun},
		lease: func(error) {},
	}
}

// TestBetterVictim pins the preemption order: least progress (latest
// start), then job ID for determinism.
func TestBetterVictim(t *testing.T) {
	t0 := time.Now()
	t1 := t0.Add(time.Second)
	cases := []struct {
		name string
		a, b *Job
		want bool
	}{
		{"least-progress-first", victim("a", t1), victim("b", t0), true},
		{"most-progress-spared", victim("a", t0), victim("b", t1), false},
		{"id-breaks-ties", victim("a", t0), victim("b", t0), true},
		{"id-spares-later", victim("b", t0), victim("a", t0), false},
	}
	for _, tc := range cases {
		if got := betterVictim(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: betterVictim = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestPickVictim: only running run jobs that hold a lease are
// candidates — queued jobs, sweeps, and jobs whose lease is already
// canceled are skipped — and among candidates the youngest-first order
// applies.
func TestPickVictim(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	t0 := time.Now()
	at := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Second) }
	jobs := []*Job{
		victim("j1", at(1)),
		victim("j2", at(2)),
		victim("j3", at(3)), // the pick: youngest
	}
	queued := victim("j4", at(4))
	queued.Status = StatusQueued
	sweep := victim("j5", at(5))
	sweep.Req = &Request{Kind: KindSweep}
	marked := victim("j6", at(6))
	marked.lease = nil
	jobs = append(jobs, queued, sweep, marked)

	s.mu.Lock()
	for _, j := range jobs {
		s.jobs[j.ID] = j
	}
	for _, want := range []string{"j3", "j2", "j1"} {
		v := s.pickVictimLocked()
		if v == nil || v.ID != want {
			s.mu.Unlock()
			t.Fatalf("pickVictimLocked = %v, want %s", v, want)
		}
		v.lease = nil
	}
	if v := s.pickVictimLocked(); v != nil {
		s.mu.Unlock()
		t.Fatalf("pickVictimLocked with every lease canceled = %s, want nil", v.ID)
	}
	s.mu.Unlock()
	// Unregister the fabricated records so the drain cleanup does not
	// trip over jobs that never ran.
	s.mu.Lock()
	for _, j := range jobs {
		delete(s.jobs, j.ID)
	}
	s.mu.Unlock()
}

// TestPreemptRequiresJournal: without a journal there is no image plane
// to park a preempted job behind, so preemptVictim declines even with
// an eligible victim.
func TestPreemptRequiresJournal(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MemBudget: 1 << 40, pressureTick: quietTick})
	j := victim("j1", time.Now())
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.mu.Unlock()
	if s.preemptVictim() {
		t.Fatal("preemptVictim marked a victim on a journal-less server")
	}
	s.mu.Lock()
	delete(s.jobs, j.ID)
	s.mu.Unlock()
}

// --- preempt / resume byte-identity -----------------------------------

// TestPreemptResumeBitIdentical is the governance difftest: a run whose
// lease is preempted mid-flight — canceled after it has run, image
// persisted where it stopped, re-enqueued, resumed on a fresh lease —
// must produce artifacts byte-identical to an uninterrupted run, resume
// from its image, and not burn a retry attempt. The checkpoint image is
// removed before the preemption, so the image the resume lease restores
// is the one the preemption took.
func TestPreemptResumeBitIdentical(t *testing.T) {
	// The one served case is a cold lease: the daemon keeps no warm pool.
	t.Run("fast/cold", func(t *testing.T) {
		c := mustCanonical(t, tinyRun())
		wantArt, wantRes, err := Execute(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		jdir, cdir := durableDirs(t)
		s := newTestServer(t, Config{
			Workers: 1, JournalDir: jdir, CacheDir: cdir,
			CheckpointCycles: wantRes.Cycles / 8,
			MemBudget:        1 << 40, pressureTick: quietTick,
		})
		s.exec = preemptingExec(s, func() {
			os.Remove((&CheckpointSpec{Dir: jdir}).path(c.Key()))
		})
		j, err := s.Submit(tinyRun(), true)
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		if j.Status != StatusDone {
			t.Fatalf("status=%s err=%q", j.Status, j.Err)
		}
		s.mu.Lock()
		preempts, attempt := j.Preempts, j.Attempt
		s.mu.Unlock()
		if preempts != 1 {
			t.Fatalf("preempted %d times, want 1", preempts)
		}
		if attempt != 1 {
			t.Fatalf("attempt = %d after preemption, want 1 (preemption must not burn the retry budget)", attempt)
		}
		if j.Result.Cycles != wantRes.Cycles || j.Result.Checksum != wantRes.Checksum {
			t.Fatalf("resumed result diverged: %+v != %+v", j.Result, wantRes)
		}
		gotArt, ok := s.cache.Get(j.Key)
		if !ok {
			t.Fatal("done job has no artifacts")
		}
		assertSameArtifacts(t, wantArt, gotArt)
		if got := s.reg.CounterValue("serve.jobs.preempted"); got != 1 {
			t.Fatalf("serve.jobs.preempted = %d, want 1", got)
		}
		if got := s.reg.CounterValue("serve.resume.restores"); got < 1 {
			t.Fatalf("serve.resume.restores = %d, want >= 1 (resume lease did not use the image)", got)
		}
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		if at := preemptedAt(t, jdir, j.ID); at == 0 {
			t.Fatal("preempted record carries cycle 0: the preemption landed before the run")
		}
	})
}

// preemptedAt returns the cycle of job id's first preempted record in
// the journal under jdir (0 when it has none). The journal must be closed.
func preemptedAt(t *testing.T, jdir, id string) uint64 {
	t.Helper()
	jn, payloads, err := journal.Open(filepath.Join(jdir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	for _, p := range payloads {
		var r jrec
		if json.Unmarshal(p, &r) == nil && r.ID == id && r.Op == opPreempted {
			return r.Cycle
		}
	}
	return 0
}

// TestPreemptedCrashReplay: the process dies while a preempted job sits
// in the queue behind its persisted image. The journal's preempted
// record makes the successor replay it as a resume lease: the job picks
// up from the image (not from scratch), finishes byte-identical, and
// the interrupted lease is not double-counted.
func TestPreemptedCrashReplay(t *testing.T) {
	c := mustCanonical(t, tinyRun())
	wantArt, wantRes, err := Execute(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	jdir, cdir := durableDirs(t)
	cfg := Config{
		Workers: 1, JournalDir: jdir, CacheDir: cdir,
		CheckpointCycles: wantRes.Cycles / 8,
		MemBudget:        1 << 40, pressureTick: quietTick,
	}
	s1, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Hold the queue before the run returns from its preemption, so the
	// preempted job cannot be re-leased: the crash below deterministically
	// lands while it is parked in the queue, preempted record journaled,
	// image on disk.
	s1.exec = preemptingExec(s1, func() { s1.queue.setHold(true) })
	j1, err := s1.Submit(tinyRun(), true)
	if err != nil {
		t.Fatal(err)
	}
	waitParked(t, s1, j1)
	if v := s1.View(j1, false); !v.Preempted || v.Checkpoint == 0 {
		t.Fatalf("parked job: %+v, want preempted with a checkpoint cycle > 0", v)
	}
	img := (&CheckpointSpec{Dir: jdir}).path(j1.Key)
	if _, err := os.Stat(img); err != nil {
		t.Fatalf("preempted job left no image: %v", err)
	}
	crash(s1)

	s2 := newTestServer(t, cfg)
	jobs := s2.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("%d jobs after crash, want 1", len(jobs))
	}
	j2 := jobs[0]
	if j2.ID != j1.ID || !j2.Recovered {
		t.Fatalf("recovered job = %s (recovered=%v), want %s", j2.ID, j2.Recovered, j1.ID)
	}
	waitJob(t, j2)
	if j2.Status != StatusDone {
		t.Fatalf("status=%s err=%q", j2.Status, j2.Err)
	}
	s2.mu.Lock()
	attempt := j2.Attempt
	s2.mu.Unlock()
	if attempt != 1 {
		t.Fatalf("attempt = %d, want 1 (preempted-at-crash job was not mid-lease)", attempt)
	}
	if got := s2.reg.CounterValue("serve.resume.restores"); got < 1 {
		t.Fatalf("serve.resume.restores = %d, want >= 1 (replayed job did not resume from its image)", got)
	}
	gotArt, ok := s2.cache.Get(j2.Key)
	if !ok {
		t.Fatal("done job has no artifacts")
	}
	assertSameArtifacts(t, wantArt, gotArt)
}

// --- preemption racing drain ------------------------------------------

// TestPreemptDuringDrain (end to end): a preemption racing a drain
// never loses the job. Here drain wins: it closes the queue between the
// preemption and the hand-back, so the hand-back's push meets a closed
// queue and the same worker takes the resume lease itself, resuming
// from the image. The job reaches done with byte-identical artifacts
// before Drain returns.
func TestPreemptDuringDrain(t *testing.T) {
	c := mustCanonical(t, tinyRun())
	wantArt, wantRes, err := Execute(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	jdir, cdir := durableDirs(t)
	s := newTestServer(t, Config{
		Workers: 1, JournalDir: jdir, CacheDir: cdir,
		CheckpointCycles: wantRes.Cycles / 8,
		MemBudget:        1 << 40, pressureTick: quietTick,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	s.exec = preemptingExec(s, func() {
		go func() { drained <- s.Drain(ctx) }()
		for !s.Draining() {
			time.Sleep(time.Millisecond)
		}
	})
	j, err := s.Submit(tinyRun(), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if j.Status != StatusDone {
		t.Fatalf("after drain: status=%s err=%q (preempted job lost to the race)", j.Status, j.Err)
	}
	if j.Preempts != 1 {
		t.Fatalf("preempted %d times, want 1", j.Preempts)
	}
	if got := s.reg.CounterValue("serve.resume.restores"); got < 1 {
		t.Fatalf("serve.resume.restores = %d, want >= 1 (the resume lease did not use the image)", got)
	}
	gotArt, ok := s.cache.Get(j.Key)
	if !ok {
		t.Fatal("done job has no artifacts")
	}
	assertSameArtifacts(t, wantArt, gotArt)
}
