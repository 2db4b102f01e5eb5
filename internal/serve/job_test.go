package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"misp/internal/fault"
	"misp/internal/journal"
)

// checkpointImage runs c until its first persisted checkpoint and returns
// the image bytes and the cycle they were taken at — what a lease that
// died mid-run leaves next to the journal.
func checkpointImage(t *testing.T, c *Request, every uint64) ([]byte, uint64) {
	t.Helper()
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	var at uint64
	cs := &CheckpointSpec{Dir: t.TempDir(), Every: every, OnCheckpoint: func(cycle uint64) {
		at = cycle
		cancel(errors.New("test: simulated kill"))
	}}
	if _, _, err := ExecuteCheckpointed(ctx, c, nil, cs); err == nil {
		t.Fatal("killed run reported success")
	}
	img, err := os.ReadFile(cs.path(c.Key()))
	if err != nil {
		t.Fatalf("killed run left no image: %v", err)
	}
	return img, at
}

// opLegacyCheckpoint is the record older builds journaled per persisted
// checkpoint image. Replay ignores it: the image is its own record.
const opLegacyCheckpoint = "checkpoint"

// TestReplayEveryPrefix enumerates the crash points of one journaled
// life instead of sampling them. The life is
//
//	accepted, started{1}, preempted{c1}, started{1}, done
//
// as journaled now ("current/…" subtests) and as older builds journaled
// it, with a checkpoint record after each started record (the subtests
// named by position alone):
//
//	accepted, started{1}, checkpoint, preempted, started{1}, checkpoint, done
//
// For every prefix of either (with the checkpoint image present and
// absent where a lease may have saved one, the cache entry in place
// where it has done) a server boots from it and must hold exactly one
// job, settle it exactly once, serve artifacts byte-identical to an
// uninterrupted run, and finish at the attempt the lease rules predict:
// a lease that died with the process is burned, a job parked by a
// preempted record resumes the attempt it was on. A legacy prefix must
// replay exactly as the same prefix without its checkpoint records: the
// job it holds before its lease looks the same. The whole life ends in
// done, which retires the job: the server holds none, and resubmitting
// the request is a hit with the same bytes. A last history repeats the
// terminal record, which replay must tolerate.
func TestReplayEveryPrefix(t *testing.T) {
	c := mustCanonical(t, tinyRun())
	wantArt, wantRes, err := Execute(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	every := wantRes.Cycles / 4
	image, c1 := checkpointImage(t, c, every)
	id := "j1-" + c.Key()[:8]
	history := []jrec{
		{Op: opAccepted, ID: id, Key: c.Key(), Req: c},
		{Op: opStarted, ID: id, Attempt: 1},
		{Op: opPreempted, ID: id, Cycle: c1},
		{Op: opStarted, ID: id, Attempt: 1},
		{Op: opDone, ID: id},
	}
	legacy := []jrec{
		history[0],
		history[1],
		{Op: opLegacyCheckpoint, ID: id, Cycle: c1},
		history[2],
		history[3],
		{Op: opLegacyCheckpoint, ID: id, Cycle: 2 * c1},
		history[4],
	}
	// The attempt a prefix finishes at, by its last lease record.
	wantAttempt := map[string]int{opAccepted: 1, opStarted: 2, opPreempted: 1}

	// replay boots a server from recs and returns the view of the job it
	// replayed, taken before the job's resume lease (zero when done
	// retired it), then checks how the job finishes.
	replay := func(t *testing.T, recs []jrec, withImage bool) JobView {
		jdir, cdir := durableDirs(t)
		if err := os.MkdirAll(jdir, 0o755); err != nil {
			t.Fatal(err)
		}
		jn, _, err := journal.Open(filepath.Join(jdir, "journal.wal"))
		if err != nil {
			t.Fatal(err)
		}
		var last string
		for _, r := range recs {
			appendRec(t, jn, r)
			if r.Op != opLegacyCheckpoint {
				last = r.Op
			}
		}
		jn.Close()
		settled := last == opDone
		if settled {
			cache, err := NewCache(cdir)
			if err != nil {
				t.Fatal(err)
			}
			if err := cache.Put(c.Key(), wantArt); err != nil {
				t.Fatal(err)
			}
		}
		if withImage {
			if err := os.WriteFile((&CheckpointSpec{Dir: jdir}).path(c.Key()), image, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		// The queue is held from before replay, so the replayed job is
		// still waiting for its lease when it is looked at.
		s, err := newServer(Config{Workers: 1, JournalDir: jdir, CacheDir: cdir, CheckpointCycles: every},
			func(s *Server) { s.queue.setHold(true) })
		if err != nil {
			t.Fatal(err)
		}
		defer s.Drain(context.Background())
		jobs := s.Jobs()
		if settled {
			if len(jobs) != 0 {
				t.Fatalf("replayed %d jobs (%v), want none: a done record retires its job", len(jobs), jobs)
			}
			hit, err := s.Submit(tinyRun(), true)
			if err != nil {
				t.Fatal(err)
			}
			if v := s.View(hit, false); v.Status != StatusDone || !v.Cached {
				t.Fatalf("resubmission: status=%s cached=%v, want a cache hit", v.Status, v.Cached)
			}
			gotArt, _ := s.cache.Get(hit.Key)
			assertSameArtifacts(t, wantArt, gotArt)
			return JobView{}
		}
		if len(jobs) != 1 || jobs[0].ID != id || !jobs[0].Recovered {
			t.Fatalf("replayed %d jobs (%v), want exactly the recovered %s", len(jobs), jobs, id)
		}
		j := jobs[0]
		replayed := s.View(j, false)
		s.queue.setHold(false)
		waitJob(t, j)
		v := s.View(j, false)
		if v.Status != StatusDone {
			t.Fatalf("status=%s err=%q", v.Status, v.Error)
		}
		if want := wantAttempt[last]; v.Attempts != want {
			t.Fatalf("finished at attempt %d, want %d", v.Attempts, want)
		}
		if v.Preempted {
			t.Fatal("done job still marked preempted")
		}
		if got := s.reg.CounterValue("serve.jobs.completed"); got != 1 {
			t.Fatalf("serve.jobs.completed = %d, want 1 (settled exactly once)", got)
		}
		gotArt, ok := s.cache.Get(j.Key)
		if !ok {
			t.Fatal("done job has no artifacts")
		}
		assertSameArtifacts(t, wantArt, gotArt)
		if restores := s.reg.CounterValue("serve.resume.restores"); withImage && restores != 1 {
			t.Fatalf("serve.resume.restores = %d, want 1 (the image was there to resume from)", restores)
		}
		return replayed
	}

	// views[n] is how the current history's n-record prefix replays.
	views := make([]JobView, len(history)+1)
	for n := 1; n <= len(history); n++ {
		images := []bool{false}
		if n >= 2 && n < len(history) { // a lease may have saved an image; a finished run removed its own
			images = []bool{false, true}
		}
		for _, withImage := range images {
			t.Run(fmt.Sprintf("current/%d-%s/image=%v", n, history[n-1].Op, withImage), func(t *testing.T) {
				views[n] = replay(t, history[:n], withImage)
			})
		}
	}
	for n := 1; n <= len(legacy); n++ {
		images := []bool{false}
		if n >= 3 && n < len(legacy) { // the prefix holds an image's record
			images = []bool{false, true}
		}
		// The same prefix as the current history journals it.
		kept := 0
		for _, r := range legacy[:n] {
			if r.Op != opLegacyCheckpoint {
				kept++
			}
		}
		for _, withImage := range images {
			t.Run(fmt.Sprintf("%d-%s/image=%v", n, legacy[n-1].Op, withImage), func(t *testing.T) {
				if got := replay(t, legacy[:n], withImage); !reflect.DeepEqual(got, views[kept]) {
					t.Fatalf("replayed with its checkpoint records: %+v\nwithout them: %+v", got, views[kept])
				}
			})
		}
	}
	t.Run("terminal-twice", func(t *testing.T) {
		replay(t, append(history[:len(history):len(history)], history[len(history)-1]), false)
	})
}

// TestReplayResumesParkedLastAttempt: a job a preemption parked during
// its last allowed attempt is not poison. Its resume lease continues that
// attempt, so the successor re-enqueues it and runs it to done — the same
// verdict the process that parked it would have reached.
func TestReplayResumesParkedLastAttempt(t *testing.T) {
	c := mustCanonical(t, tinyRun())
	wantArt, _, err := Execute(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	id := "j1-" + c.Key()[:8]
	jdir, cdir := durableDirs(t)
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	jn, _, err := journal.Open(filepath.Join(jdir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []jrec{
		{Op: opAccepted, ID: id, Key: c.Key(), Req: c},
		{Op: opStarted, ID: id, Attempt: 1},
		{Op: opPreempted, ID: id},
	} {
		appendRec(t, jn, r)
	}
	jn.Close()

	s := newTestServer(t, Config{Workers: 1, JournalDir: jdir, CacheDir: cdir, MaxRetries: 1})
	jobs := s.Jobs()
	if len(jobs) != 1 || jobs[0].ID != id {
		t.Fatalf("replayed %d jobs (%v), want exactly %s", len(jobs), jobs, id)
	}
	if got := s.reg.CounterValue("serve.resume.jobs"); got != 1 {
		t.Fatalf("serve.resume.jobs = %d, want 1: the parked job was not re-enqueued", got)
	}
	j := jobs[0]
	waitJob(t, j)
	if v := s.View(j, false); v.Status != StatusDone || v.Attempts != 1 {
		t.Fatalf("status=%s attempts=%d err=%q, want done on attempt 1", v.Status, v.Attempts, v.Error)
	}
	gotArt, ok := s.cache.Get(j.Key)
	if !ok {
		t.Fatal("done job has no artifacts")
	}
	assertSameArtifacts(t, wantArt, gotArt)
}

// TestLiveThenReplayAgree: the live path and replay are one state
// machine, so a job must look the same to a client of the process that
// holds it and to a client of the successor that only read its journal —
// in every state replay keeps: a job parked by a forced preemption,
// before its resume lease, and a failed verdict. Only what a journal
// cannot carry may differ: recovered, the host wall time, the run's
// result figures (artifacts hold those), and preempts, which counts the
// preemptions this process applied.
func TestLiveThenReplayAgree(t *testing.T) {
	_, wantRes, err := Execute(context.Background(), mustCanonical(t, tinyRun()))
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
	defer s1.Drain(context.Background())
	// The run is preempted from its first checkpoint, and the queue held
	// before the run hands the job back, so its preemption parks it
	// there; it is re-enqueued only after its preempted record is
	// journaled.
	preempting := preemptingExec(s1, func() { s1.queue.setHold(true) })
	failing := &Request{Kind: KindRun, App: "kmeans", Size: "test", Topology: []int{2}}
	s1.exec = func(ctx context.Context, j *Job) (Artifacts, *Result, error) {
		if j.Req.App == failing.App {
			return nil, nil, &fault.Diagnosis{Reason: fault.ReasonCycleLimit}
		}
		return preempting(ctx, j)
	}
	failed, err := s1.Submit(failing, true)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, failed)
	parked, err := s1.Submit(tinyRun(), true)
	if err != nil {
		t.Fatal(err)
	}
	waitParked(t, s1, parked)
	live := []JobView{s1.View(failed, true), s1.View(parked, true)}
	if v := live[0]; v.Status != StatusFailed || v.Failure != ReasonBudget || v.Attempts != 1 {
		t.Fatalf("live failed job: %+v, want failed %q on attempt 1", v, ReasonBudget)
	}
	if v := live[1]; v.Status != StatusQueued || !v.Preempted || v.Preempts != 1 || v.Attempts != 1 || v.Checkpoint == 0 {
		t.Fatalf("live parked job: %+v, want queued and preempted once on attempt 1 at a checkpoint cycle > 0", v)
	}
	crash(s1)

	// The successor's queue is held from before replay, so the parked job
	// is still waiting for its resume lease when it is looked at.
	s2, err := newServer(cfg, func(s *Server) { s.queue.setHold(true) })
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(context.Background())
	for i, j := range []*Job{failed, parked} {
		rj, ok := s2.Job(j.ID)
		if !ok {
			t.Fatalf("job %s lost across restart", j.ID)
		}
		replayed := s2.View(rj, true)
		if !replayed.Recovered {
			t.Fatalf("replayed job %s not marked recovered", j.ID)
		}
		for _, v := range []*JobView{&live[i], &replayed} {
			v.Recovered, v.WallMS, v.Result, v.Preempts = false, 0, nil, 0
		}
		if !reflect.DeepEqual(live[i], replayed) {
			t.Fatalf("live and replayed views disagree:\n live   %+v\n replay %+v", live[i], replayed)
		}
	}
}

// TestStepAppliesBeforeItJournals: the journal never holds a transition
// the job table has not applied, so whoever reads a record back — the
// next boot, or a client shown the state a crash would replay to — never
// sees more than the live table showed. With the server mutex held the
// transition cannot be applied; it must not reach the disk either.
func TestStepAppliesBeforeItJournals(t *testing.T) {
	jdir, cdir := durableDirs(t)
	s := newTestServer(t, Config{Workers: 1, JournalDir: jdir, CacheDir: cdir})
	j := &Job{ID: "t1", Status: StatusQueued}
	before := s.jnl.Records()

	s.mu.Lock()
	stepped := make(chan struct{})
	go func() {
		s.step(j, jrec{Op: opStarted, ID: j.ID, Attempt: 1})
		close(stepped)
	}()
	time.Sleep(50 * time.Millisecond)
	early := s.jnl.Records() - before
	s.mu.Unlock()
	<-stepped

	if early != 0 {
		t.Fatalf("%d record(s) journaled while the transition could not be applied", early)
	}
	if j.Status != StatusRunning || j.Attempt != 1 {
		t.Fatalf("after step: status=%s attempt=%d, want running on attempt 1", j.Status, j.Attempt)
	}
	if got := s.jnl.Records() - before; got != 1 {
		t.Fatalf("step journaled %d records, want 1", got)
	}
}

// TestSettledJobReleasesContext: settling a job cancels its context, so
// a finished job no longer hangs off the server's base context until
// shutdown — a run, a cache-hit record and a job replay settles alike
// (deduped against the cache, or a kept failure) — and the verdict is
// what it was: status, error and the journal's terminal record. The run
// itself is retired by its done record and answers 404 after a restart.
func TestSettledJobReleasesContext(t *testing.T) {
	jdir, cdir := durableDirs(t)
	cfg := Config{Workers: 1, JournalDir: jdir, CacheDir: cdir}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(tinyRun(), true)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	hit, err := s.Submit(tinyRun(), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []*Job{j, hit} {
		if x.ctx.Err() == nil {
			t.Errorf("job %s settled with its context live", x.ID)
		}
		if v := s.View(x, false); v.Status != StatusDone || v.Error != "" || v.Failure != "" {
			t.Errorf("job %s: %+v, want done with no error", x.ID, v)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	jn, payloads, err := journal.Open(filepath.Join(jdir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var terminal []jrec
	for _, p := range payloads {
		var r jrec
		if json.Unmarshal(p, &r) == nil && r.ID == j.ID && JobStatus(r.Op).Terminal() {
			terminal = append(terminal, r)
		}
	}
	if want := (jrec{Op: opDone, ID: j.ID}); len(terminal) != 1 || !reflect.DeepEqual(terminal[0], want) {
		t.Fatalf("terminal records of %s: %+v, want exactly %+v", j.ID, terminal, want)
	}
	// Two histories replay settles: a started job whose key the cache
	// holds (the crash beat its terminal record), and a recorded failure.
	c := mustCanonical(t, tinyRun())
	f := mustCanonical(t, &Request{Kind: KindRun, App: "kmeans", Size: "test", Topology: []int{2}})
	deduped, failed := "j100-"+c.Key()[:8], "j101-"+f.Key()[:8]
	appendRec(t, jn, jrec{Op: opAccepted, ID: deduped, Key: c.Key(), Req: c})
	appendRec(t, jn, jrec{Op: opStarted, ID: deduped, Attempt: 1})
	appendRec(t, jn, jrec{Op: opAccepted, ID: failed, Key: f.Key(), Req: f})
	appendRec(t, jn, jrec{Op: opFailed, ID: failed, Error: "test: recorded failure"})
	jn.Close()

	s2 := newTestServer(t, cfg)
	if _, ok := s2.Job(j.ID); ok {
		t.Fatalf("job %s listed after restart, want it retired", j.ID)
	}
	for id, want := range map[string]JobStatus{deduped: StatusDone, failed: StatusFailed} {
		r, ok := s2.Job(id)
		if !ok {
			t.Fatalf("job %s lost across restart", id)
		}
		if v := s2.View(r, false); v.Status != want || r.ctx.Err() == nil {
			t.Fatalf("replayed job %s: status %s, context err %v; want %s with its context released", id, v.Status, r.ctx.Err(), want)
		}
	}
}

// TestSettleTwiceIsNoOp: settling a terminal job changes nothing and
// reports false, so its terminal record is written once and its done
// channel closed once. Replay no longer settles a job twice (a job's
// first recorded verdict stands), so this is held directly.
func TestSettleTwiceIsNoOp(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	c := mustCanonical(t, tinyRun())
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.newJobLocked(c, c.Key(), true)
	s.registerLocked(j)
	if !s.settleLocked(j, nil, errors.New("test: first verdict")) {
		t.Fatal("first settle reported no transition")
	}
	if s.settleLocked(j, &Result{ChecksumOK: true}, nil) {
		t.Fatal("second settle reported a transition")
	}
	if j.Status != StatusFailed || j.Err != "test: first verdict" {
		t.Fatalf("after two settles: status=%s err=%q, want the first verdict", j.Status, j.Err)
	}
	if got := s.reg.CounterValue("serve.jobs.failed") + s.reg.CounterValue("serve.jobs.completed"); got != 1 {
		t.Fatalf("%d verdicts counted, want 1", got)
	}
}
