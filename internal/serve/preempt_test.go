package serve

import (
	"context"
	"os"
	"testing"
	"time"
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

// markVictim polls preemptVictim until it marks a victim (the job must
// first reach StatusRunning for one to exist).
func markVictim(t *testing.T, s *Server) {
	t.Helper()
	waitCond(t, func() bool { return s.preemptVictim() }, "no preemption victim appeared")
}

// gateExec parks every lease at the top of s.exec — the job is
// StatusRunning and has not simulated a cycle — until the test calls
// release. A tiny job prepares and finishes in a few milliseconds, so
// a test that polls for StatusRunning and then acts on the running job
// loses that race under load; one that arms its preemption, hold or
// drain while the job is parked here cannot. Install before Submit.
func gateExec(s *Server) (running <-chan struct{}, release func()) {
	started, gate := make(chan struct{}, 1), make(chan struct{})
	s.exec = func(ctx context.Context, j *Job) (Artifacts, *Result, error) {
		select {
		case started <- struct{}{}:
		default: // only the first lease is announced
		}
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, nil, context.Cause(ctx)
		}
		return s.executeJob(ctx, j)
	}
	return started, func() { close(gate) }
}

// --- victim selection -------------------------------------------------

func victim(id string, started time.Time) *Job {
	return &Job{
		ID: id, Started: started,
		Status: StatusRunning, Req: &Request{Kind: KindRun},
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

// TestPickVictim: only running, not-yet-marked run jobs are candidates
// — queued jobs, sweeps, and jobs already asked to yield are skipped —
// and among candidates the youngest-first order applies.
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
	marked.preemptReq.Store(true)
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
		v.preemptReq.Store(true)
	}
	if v := s.pickVictimLocked(); v != nil {
		s.mu.Unlock()
		t.Fatalf("pickVictimLocked with every candidate marked = %s, want nil", v.ID)
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

// TestPreemptResumeBitIdentical is the governance difftest: a run that
// is cooperatively preempted mid-flight — paused at a quiescent
// boundary, image persisted, re-enqueued, resumed on a fresh lease —
// must produce artifacts byte-identical to an uninterrupted run, cold
// and against a warm pool, without burning a retry attempt.
func TestPreemptResumeBitIdentical(t *testing.T) {
	c := mustCanonical(t, tinyRun())
	wantArt, wantRes, err := Execute(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	quantum := wantRes.Cycles / 8
	if quantum == 0 {
		t.Fatalf("run too short to preempt (%d cycles)", wantRes.Cycles)
	}
	for _, warmPool := range []bool{false, true} {
		t.Run(map[bool]string{false: "fast/cold", true: "fast/warm"}[warmPool], func(t *testing.T) {
			jdir, cdir := durableDirs(t)
			s := newTestServer(t, Config{
				Workers: 1, JournalDir: jdir, CacheDir: cdir,
				MemBudget: 1 << 40, pressureTick: quietTick,
				preemptQuantum: quantum,
			})
			if warmPool {
				// Prime the pool so both the preempted lease and the
				// resume lease fork a warm image.
				if _, _, err := ExecuteCheckpointed(context.Background(), c, s.warm, nil); err != nil {
					t.Fatal(err)
				}
			}
			// Arm the preemption while the job is parked behind a held
			// queue, so the request is visible before the first cycle
			// executes and the first pause-slice boundary always yields.
			// (markVictim against a free-running job races the run's
			// last boundary — a warm fork finishes in milliseconds.)
			s.queue.setHold(true)
			j, err := s.Submit(tinyRun(), true)
			if err != nil {
				t.Fatal(err)
			}
			j.preemptReq.Store(true)
			s.queue.setHold(false)
			waitJob(t, j)
			if j.Status != StatusDone {
				t.Fatalf("status=%s err=%q", j.Status, j.Err)
			}
			s.mu.Lock()
			preempts, attempt := j.Preempts, j.Attempt
			s.mu.Unlock()
			if preempts < 1 {
				t.Fatal("job completed without being preempted")
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
			if got := s.reg.CounterValue("serve.jobs.preempted"); got < 1 {
				t.Fatalf("serve.jobs.preempted = %d, want >= 1", got)
			}
			if got := s.reg.CounterValue("serve.resume.restores"); got < 1 {
				t.Fatalf("serve.resume.restores = %d, want >= 1 (resume lease did not use the image)", got)
			}
		})
	}
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
		MemBudget: 1 << 40, pressureTick: quietTick,
		preemptQuantum: wantRes.Cycles / 8,
	}
	s1, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	running, release := gateExec(s1)
	j1, err := s1.Submit(tinyRun(), true)
	if err != nil {
		t.Fatal(err)
	}
	// Once the job is running, hold the queue so the preempted job
	// cannot be re-leased: the crash below deterministically lands while
	// it is parked in the queue, preempted record journaled, image on
	// disk. (The hold must come after dispatch, or the job never starts.)
	// The job stays parked at the top of its lease until both the hold
	// and the preemption request are in place, so its first pause slice
	// yields.
	<-running
	s1.queue.setHold(true)
	markVictim(t, s1)
	release()
	waitCond(t, func() bool {
		s1.mu.Lock()
		defer s1.mu.Unlock()
		return j1.Preempted
	}, "job was never preempted")
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

// TestPreemptDuringDrain (end to end): a preemption request racing a
// drain never loses the job — whichever side wins, the job reaches
// done with byte-identical artifacts before Drain returns. When drain
// wins, the hand-back's push meets a closed queue and the same worker
// takes the resume lease itself.
func TestPreemptDuringDrain(t *testing.T) {
	c := mustCanonical(t, tinyRun())
	wantArt, wantRes, err := Execute(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	jdir, cdir := durableDirs(t)
	s := newTestServer(t, Config{
		Workers: 1, JournalDir: jdir, CacheDir: cdir,
		MemBudget: 1 << 40, pressureTick: quietTick,
		preemptQuantum: wantRes.Cycles / 8,
	})
	running, release := gateExec(s)
	j, err := s.Submit(tinyRun(), true)
	if err != nil {
		t.Fatal(err)
	}
	<-running
	markVictim(t, s)
	release()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if j.Status != StatusDone {
		t.Fatalf("after drain: status=%s err=%q (preempted job lost to the race)", j.Status, j.Err)
	}
	gotArt, ok := s.cache.Get(j.Key)
	if !ok {
		t.Fatal("done job has no artifacts")
	}
	assertSameArtifacts(t, wantArt, gotArt)
}
