package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"misp/internal/fault"
	"misp/internal/journal"
)

// durableDirs builds a journal+cache directory pair under one temp
// root, so a "restarted" server can reopen the same state.
func durableDirs(t *testing.T) (jdir, cdir string) {
	t.Helper()
	root := t.TempDir()
	return filepath.Join(root, "journal"), filepath.Join(root, "cache")
}

// crash simulates the process dying: the journal handle is closed (so
// the dead server's stray appends vanish with ErrClosed, exactly like a
// dead process's buffered writes) and the workers are cut loose. The
// on-disk journal and cache stay exactly as the "crash" left them.
func crash(s *Server) {
	if s.jnl != nil {
		s.jnl.Close()
	}
	s.baseCancel(errors.New("test: simulated crash"))
}

// appendRec writes one schema record to a journal file directly —
// tests use it to author pre-crash histories byte by byte.
func appendRec(t *testing.T, jn *journal.Journal, r jrec) {
	t.Helper()
	b, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.Append(b); err != nil {
		t.Fatal(err)
	}
}

// TestFailedBootClosesJournal: when the boot-time compaction cannot
// write (the disk is full), NewServer fails and leaves no descriptor
// open on the journal it opened for replay.
func TestFailedBootClosesJournal(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to stand in for a full disk")
	}
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to list open descriptors")
	}
	jdir, cdir := durableDirs(t)
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(jdir, "journal.wal")
	if err := os.Symlink("/dev/full", wal+".tmp"); err != nil {
		t.Fatal(err)
	}
	if s, err := NewServer(Config{Workers: 1, JournalDir: jdir, CacheDir: cdir}); err == nil {
		s.Drain(context.Background())
		t.Fatal("NewServer booted with a journal it could not compact")
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && target == wal {
			t.Fatalf("descriptor %s still open on %s after the failed boot", fd.Name(), wal)
		}
	}
}

// TestCrashRecoveryCompletesJobs is the tentpole in miniature: jobs
// accepted (and one mid-run) when the process dies are replayed from
// the journal by the next server and run to completion, with artifacts
// byte-identical to a never-crashed run — never lost, never duplicated.
func TestCrashRecoveryCompletesJobs(t *testing.T) {
	// Reference artifacts from an uninterrupted run.
	wantArt, _, err := Execute(context.Background(), mustCanonical(t, tinyRun()))
	if err != nil {
		t.Fatal(err)
	}

	jdir, cdir := durableDirs(t)
	s1, err := NewServer(Config{Workers: 1, JournalDir: jdir, CacheDir: cdir})
	if err != nil {
		t.Fatal(err)
	}
	running := make(chan struct{})
	s1.exec = func(ctx context.Context, j *Job) (Artifacts, *Result, error) {
		close(running)
		<-ctx.Done() // wedged until the "crash"
		return nil, nil, context.Cause(ctx)
	}
	j1, err := s1.Submit(tinyRun(), true)
	if err != nil {
		t.Fatal(err)
	}
	sweep := &Request{Kind: KindSweep, Apps: []string{"dense_mmm"}, Size: "test", Seqs: 2, Exp: "table1"}
	j2, err := s1.Submit(sweep, true)
	if err != nil {
		t.Fatal(err)
	}
	<-running // j1 holds a lease; j2 is queued
	crash(s1)

	s2, err := NewServer(Config{Workers: 2, JournalDir: jdir, CacheDir: cdir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s2.Drain(ctx)
	}()

	jobs := s2.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("recovered %d jobs, want 2 (never lost, never duplicated)", len(jobs))
	}
	for _, j := range jobs {
		if !j.Recovered {
			t.Fatalf("job %s not marked recovered", j.ID)
		}
		waitJob(t, j)
		if j.Status != StatusDone {
			t.Fatalf("recovered job %s: status=%s err=%q", j.ID, j.Status, j.Err)
		}
	}
	// IDs survive the crash verbatim.
	if _, ok := s2.Job(j1.ID); !ok {
		t.Fatalf("job ID %s lost across restart", j1.ID)
	}
	if _, ok := s2.Job(j2.ID); !ok {
		t.Fatalf("job ID %s lost across restart", j2.ID)
	}
	// The mid-run job's artifacts are byte-identical to the reference.
	rj, _ := s2.Job(j1.ID)
	got, ok := s2.cache.Get(rj.Key)
	if !ok {
		t.Fatal("recovered job produced no cache entry")
	}
	assertSameArtifacts(t, wantArt, got)
	// And its burned lease carried over: attempt 1 died with s1, so the
	// completing attempt is at least the second.
	if rj.Attempt < 2 {
		t.Fatalf("recovered job completed at attempt %d, want >= 2 (lease carried over)", rj.Attempt)
	}

	// A job's done record is appended just after it settles, so wait for
	// both records to reach the file before the crash: one the crash cut
	// off would leave its job to be deduped against the cache instead.
	deadline := time.Now().Add(10 * time.Second)
	for _, id := range []string{j1.ID, j2.ID} {
		rec := `{"op":"done","id":"` + id + `"}`
		for {
			if b, _ := os.ReadFile(filepath.Join(jdir, "journal.wal")); strings.Contains(string(b), rec) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s's done record never reached the journal", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// A third boot finds both jobs done, so it retires them: nothing
	// re-enqueues, the compacted journal is empty, and nothing is lost —
	// both requests resubmit as cache hits with identical artifacts.
	crash(s2)
	s3, err := NewServer(Config{Workers: 1, JournalDir: jdir, CacheDir: cdir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Drain(context.Background())
	if n := len(s3.Jobs()); n != 0 {
		t.Fatalf("third boot sees %d jobs, want 0 (done jobs retire)", n)
	}
	if got := s3.jnl.Records(); got != 0 {
		t.Fatalf("compacted journal holds %d records, want 0", got)
	}
	for _, req := range []*Request{tinyRun(), sweep} {
		want, ok := s2.cache.Get(mustCanonical(t, req).Key())
		if !ok {
			t.Fatal("second boot's cache lost an entry")
		}
		hit, err := s3.Submit(req, true)
		if err != nil {
			t.Fatal(err)
		}
		if v := s3.View(hit, false); v.Status != StatusDone || !v.Cached {
			t.Fatalf("resubmission after the third boot: status=%s cached=%v, want a cache hit", v.Status, v.Cached)
		}
		got, _ := s3.cache.Get(hit.Key)
		assertSameArtifacts(t, want, got)
	}
}

// TestRecoveryDedupesAgainstCache: a job that finished — cache entry
// durable — whose terminal record was lost to the crash must be marked
// done at replay, not re-simulated and not duplicated.
func TestRecoveryDedupesAgainstCache(t *testing.T) {
	jdir, cdir := durableDirs(t)
	c := mustCanonical(t, tinyRun())

	cache, err := NewCache(cdir)
	if err != nil {
		t.Fatal(err)
	}
	art := Artifacts{"summary.json": []byte("{\"done\":true}\n")}
	if err := cache.Put(c.Key(), art); err != nil {
		t.Fatal(err)
	}

	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	jn, _, err := journal.Open(filepath.Join(jdir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	appendRec(t, jn, jrec{Op: opAccepted, ID: "j1-" + c.Key()[:8], Key: c.Key(), Req: c})
	appendRec(t, jn, jrec{Op: opStarted, ID: "j1-" + c.Key()[:8], Attempt: 1})
	jn.Close()

	s, err := NewServer(Config{Workers: 1, JournalDir: jdir, CacheDir: cdir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	j, ok := s.Job("j1-" + c.Key()[:8])
	if !ok {
		t.Fatal("journaled job lost")
	}
	if j.Status != StatusDone {
		t.Fatalf("deduped job status = %s, want done", j.Status)
	}
	if got := s.reg.CounterValue("serve.resume.deduped"); got != 1 {
		t.Fatalf("serve.resume.deduped = %d, want 1", got)
	}
	if q, _ := s.QueueDepth(); q != 0 {
		t.Fatalf("deduped job was re-enqueued (queue depth %d)", q)
	}
}

// TestReplayedDoneWithoutEntry: a journaled done job is retired at
// replay without its cache entry being read — here a memory-only cache
// that died with the process holds none. Its ID answers 404, and
// resubmitting the request, which the cache cannot serve, simulates it
// afresh.
func TestReplayedDoneWithoutEntry(t *testing.T) {
	jdir, _ := durableDirs(t)
	ran := func(ctx context.Context, j *Job) (Artifacts, *Result, error) {
		return diskArt("ran"), &Result{ChecksumOK: true}, nil
	}
	s1, err := NewServer(Config{Workers: 1, JournalDir: jdir})
	if err != nil {
		t.Fatal(err)
	}
	s1.exec = ran
	j, err := s1.Submit(tinyRun(), true)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	// Drain, not crash: the done record is appended after done closes.
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Config{Workers: 1, JournalDir: jdir})
	s2.exec = ran
	if rec := serveOne(t, s2.Handler(), http.MethodGet, "/v1/jobs/"+j.ID, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("GET /v1/jobs/%s after restart: %d %s, want 404 (a done job retires at replay)", j.ID, rec.Code, rec.Body)
	}
	if n := len(s2.Jobs()); n != 0 {
		t.Fatalf("replay kept %d jobs, want 0", n)
	}
	again, err := s2.Submit(tinyRun(), true)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, again)
	if v := s2.View(again, false); v.Status != StatusDone || v.Cached || len(v.Artifacts) == 0 {
		t.Fatalf("resubmission: status=%s cached=%v artifacts=%v, want a fresh done run", v.Status, v.Cached, v.Artifacts)
	}
}

// TestRestartKeepsOnlyUnfinishedWork: a restart costs what is unfinished,
// not what ever ran. A hundred done jobs — plus cache-hit records — and
// keptFailures+5 failed jobs are settled; the live table already keeps
// only the newest keptFailures failures beside the done jobs and hit
// records. After the drain the reboot reads no cache entry, retires
// every done job, keeps those same failures, and compacts the journal to
// their 2·keptFailures records. A second reboot finds the same state.
func TestRestartKeepsOnlyUnfinishedWork(t *testing.T) {
	jdir, cdir := durableDirs(t)
	cfg := Config{Workers: 2, JournalDir: jdir, CacheDir: cdir}
	const done = 100
	s1, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1.exec = func(ctx context.Context, j *Job) (Artifacts, *Result, error) {
		if *j.Req.SignalCost > done {
			return nil, nil, &fault.Diagnosis{Reason: fault.ReasonCycleLimit}
		}
		return Artifacts{"summary.json": []byte(j.Key + "\n")}, &Result{ChecksumOK: true}, nil
	}
	var failed []string
	for i := range done + keptFailures + 5 {
		j, err := s1.Submit(keyed(i+1), true)
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		if i >= done {
			failed = append(failed, j.ID)
		} else if i%4 == 0 {
			if hit, err := s1.Submit(keyed(i+1), true); err != nil || !s1.View(hit, false).Cached {
				t.Fatalf("resubmission %d: %v, want a cache hit", i, err)
			}
		}
	}
	want := failed[len(failed)-keptFailures:]
	var runs, hits int
	var kept []string
	for _, j := range s1.Jobs() {
		switch {
		case j.Status == StatusDone && j.Cached:
			hits++
		case j.Status == StatusDone:
			runs++
		default:
			kept = append(kept, j.ID)
		}
	}
	if runs != done || hits != done/4 || !slices.Equal(kept, want) {
		t.Fatalf("live table: %d done runs, %d hit records, failures %v; want %d, %d and the newest %d %v",
			runs, hits, kept, done, done/4, keptFailures, want)
	}
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	for boot := 1; boot <= 2; boot++ {
		var loads atomic.Int32
		s, err := newServer(cfg, func(s *Server) { s.cache.loadDelay = func(string) { loads.Add(1) } })
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, j := range s.Jobs() {
			ids = append(ids, j.ID)
			if j.Status != StatusFailed || j.Failure == nil || j.Failure.Reason != ReasonBudget {
				t.Fatalf("boot %d: job %s is %s, want failed %q", boot, j.ID, j.Status, ReasonBudget)
			}
		}
		if !slices.Equal(ids, want) {
			t.Fatalf("boot %d lists %d jobs %v, want the newest %d failures %v", boot, len(ids), ids, keptFailures, want)
		}
		if got := s.jnl.Records(); got != 2*keptFailures {
			t.Fatalf("boot %d: compacted journal holds %d records, want %d", boot, got, 2*keptFailures)
		}
		if n := loads.Load(); n != 0 {
			t.Fatalf("boot %d read %d cache entries, want none", boot, n)
		}
		s.Metrics()
		s.mu.Lock()
		entries := s.reg.CounterValue("serve.cache.entries")
		s.mu.Unlock()
		if entries != 0 {
			t.Fatalf("boot %d: serve.cache.entries = %d, want 0", boot, entries)
		}
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDedupedJobIsNotCompacted: a job that recovery settles done against
// the cache is answered by the cache from then on, so the boot's
// compaction writes no record for it, as for any other done job.
func TestDedupedJobIsNotCompacted(t *testing.T) {
	jdir, cdir := durableDirs(t)
	c := mustCanonical(t, tinyRun())
	cache, err := NewCache(cdir)
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Put(c.Key(), diskArt("done")); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	jn, _, err := journal.Open(filepath.Join(jdir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	appendRec(t, jn, jrec{Op: opAccepted, ID: "j1-" + c.Key()[:8], Key: c.Key(), Req: c})
	appendRec(t, jn, jrec{Op: opStarted, ID: "j1-" + c.Key()[:8], Attempt: 1})
	jn.Close()

	s := newTestServer(t, Config{Workers: 1, JournalDir: jdir, CacheDir: cdir})
	if got := s.reg.CounterValue("serve.resume.deduped"); got != 1 {
		t.Fatalf("serve.resume.deduped = %d, want 1", got)
	}
	if got := s.jnl.Records(); got != 0 {
		t.Fatalf("compacted journal holds %d records, want 0", got)
	}
}

// TestRecoveryFailsPoisonJob: a job whose journaled attempts already
// consumed the retry budget fails at replay with a structured,
// errors.As-reachable diagnosis instead of wedging the daemon forever.
func TestRecoveryFailsPoisonJob(t *testing.T) {
	jdir, cdir := durableDirs(t)
	c := mustCanonical(t, tinyRun())
	id := "j7-" + c.Key()[:8]

	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	jn, _, err := journal.Open(filepath.Join(jdir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	appendRec(t, jn, jrec{Op: opAccepted, ID: id, Key: c.Key(), Req: c})
	for a := 1; a <= 2; a++ {
		appendRec(t, jn, jrec{Op: opStarted, ID: id, Attempt: a})
	}
	jn.Close()

	s, err := NewServer(Config{Workers: 1, JournalDir: jdir, CacheDir: cdir, MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	j, ok := s.Job(id)
	if !ok {
		t.Fatal("journaled job lost")
	}
	if j.Status != StatusFailed {
		t.Fatalf("poison job status = %s, want failed", j.Status)
	}
	var je *JobError
	if !errors.As(fmt.Errorf("wrap: %w", error(j.Failure)), &je) {
		t.Fatal("job failure is not errors.As-reachable")
	}
	if je.Reason != ReasonRetries || je.Attempts != 2 {
		t.Fatalf("diagnosis = %q after %d attempts, want %q after 2", je.Reason, je.Attempts, ReasonRetries)
	}
	// The ID counter moved past the recovered ID: new jobs don't collide.
	j2, err := s.Submit(&Request{Kind: KindSweep, Apps: []string{"kmeans"}, Size: "test", Seqs: 2, Exp: "table1"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID == id {
		t.Fatalf("new job reused recovered ID %s", id)
	}
	waitJob(t, j2)

	// One more boot: the verdict is now a journaled failed record, and its
	// reason must come back with it — the structured diagnosis is part of
	// what "the verdict survives restarts" promises, not just the text.
	want := s.View(j, false)
	crash(s)
	s2, err := NewServer(Config{Workers: 1, JournalDir: jdir, CacheDir: cdir, MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(context.Background())
	jb, ok := s2.Job(id)
	if !ok {
		t.Fatal("failed job lost on the second boot")
	}
	got := s2.View(jb, false)
	if got.Status != StatusFailed || got.Failure != ReasonRetries || got.Error != want.Error || got.Attempts != 2 {
		t.Fatalf("second boot: status=%s failure_reason=%q attempts=%d error=%q, want failed %q 2 %q",
			got.Status, got.Failure, got.Attempts, got.Error, ReasonRetries, want.Error)
	}
	if !errors.As(error(jb.Failure), &je) || je.Attempts != 2 {
		t.Fatalf("second boot: Job.Failure = %+v, want a JobError after 2 attempts", jb.Failure)
	}
}

// TestSubmitNotDurable: a job is acknowledged only once its accepted
// record is on disk. With the journal dead under a live server, Submit
// refuses with ErrNotDurable (503 + Retry-After over HTTP), the job that
// was already queued settles failed with that cause, and it is neither
// run to completion nor left in the queue or the single-flight table.
func TestSubmitNotDurable(t *testing.T) {
	jdir, cdir := durableDirs(t)
	s := newTestServer(t, Config{Workers: 1, JournalDir: jdir, CacheDir: cdir})
	var finished atomic.Int32
	s.exec = func(ctx context.Context, j *Job) (Artifacts, *Result, error) {
		<-ctx.Done() // a lease taken before the cancel landed dies with it
		finished.Add(1)
		return nil, nil, context.Cause(ctx)
	}
	s.jnl.Close() // the disk went away: every append now fails

	j, err := s.Submit(tinyRun(), true)
	if !errors.Is(err, ErrNotDurable) || j != nil {
		t.Fatalf("Submit with a dead journal = (%v, %v), want (nil, ErrNotDurable)", j, err)
	}
	jobs := s.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("%d job records, want the 1 refused job", len(jobs))
	}
	waitJob(t, jobs[0])
	v := s.View(jobs[0], false)
	if v.Status != StatusFailed || v.Failure != ReasonNotDurable || !strings.Contains(v.Error, ErrNotDurable.Error()) {
		t.Fatalf("refused job settled %s/%q (%q), want failed, not-durable, with the journal error", v.Status, v.Failure, v.Error)
	}
	if q, _ := s.QueueDepth(); q != 0 {
		t.Fatalf("refused job still queued (depth %d)", q)
	}
	// Under mu: the worker's own (failing) terminal append is still
	// counting after done has closed.
	s.mu.Lock()
	completed, appendErrs := s.reg.CounterValue("serve.jobs.completed"), s.reg.CounterValue("serve.journal.append_errors")
	s.mu.Unlock()
	if completed != 0 {
		t.Fatalf("serve.jobs.completed = %d after a refused submission", completed)
	}
	if appendErrs == 0 {
		t.Fatal("the failed accepted append was not counted")
	}

	// Over the wire the refusal is a 503 with a Retry-After, and the
	// retry is a fresh admission, not a coalesce onto the dead job.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(tinyRun())
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("HTTP submit with a dead journal: %d Retry-After=%q, want 503 with a hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if n := len(s.Jobs()); n != 2 {
		t.Fatalf("%d job records after the retry, want 2 (one refused job each)", n)
	}
}

// TestRetryExhaustionDiagnosis: in-process attempt failures retry with
// backoff and then settle as a JobError carrying reason, attempt count,
// and the last attempt's error.
func TestRetryExhaustionDiagnosis(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxRetries: 3, retryBackoff: time.Millisecond})
	var calls atomic.Int32
	boom := errors.New("exec: boom")
	s.exec = func(ctx context.Context, j *Job) (Artifacts, *Result, error) {
		calls.Add(1)
		return nil, nil, boom
	}
	j, err := s.Submit(tinyRun(), true)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if j.Status != StatusFailed {
		t.Fatalf("status = %s, want failed", j.Status)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("executed %d attempts, want 3", got)
	}
	if j.Failure == nil || j.Failure.Reason != ReasonRetries || j.Failure.Attempts != 3 {
		t.Fatalf("failure = %+v, want retries-exhausted after 3", j.Failure)
	}
	if !errors.Is(j.Failure, boom) {
		t.Fatal("JobError does not wrap the last attempt's error")
	}
	if s.reg.CounterValue("serve.jobs.retries") != 2 {
		t.Fatalf("serve.jobs.retries = %d, want 2", s.reg.CounterValue("serve.jobs.retries"))
	}
}

// TestCycleLimitNeverRetries: core's cycle-limit abort is deterministic,
// so a job that hits it fails at once with reason budget-exceeded — on a
// daemon without a memory budget too — instead of re-running the same
// cycles to the same verdict.
func TestCycleLimitNeverRetries(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxRetries: 3, retryBackoff: time.Millisecond})
	var calls atomic.Int32
	s.exec = func(ctx context.Context, j *Job) (Artifacts, *Result, error) {
		calls.Add(1)
		return nil, nil, &fault.Diagnosis{Reason: fault.ReasonCycleLimit}
	}
	j, err := s.Submit(tinyRun(), true)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if got := calls.Load(); got != 1 {
		t.Fatalf("executed %d attempts, want 1", got)
	}
	if v := s.View(j, false); v.Status != StatusFailed || v.Failure != ReasonBudget {
		t.Fatalf("status=%s failure_reason=%q, want failed/%s", v.Status, v.Failure, ReasonBudget)
	}
	if got := s.reg.CounterValue("serve.jobs.retries"); got != 0 {
		t.Fatalf("serve.jobs.retries = %d, want 0", got)
	}
}

// TestJobTimeoutDiagnosis: the per-job deadline settles the job as a
// failed JobError (reason deadline-exceeded), not a bare cancellation.
func TestJobTimeoutDiagnosis(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, JobTimeout: 30 * time.Millisecond})
	s.exec = func(ctx context.Context, j *Job) (Artifacts, *Result, error) {
		<-ctx.Done()
		return nil, nil, ctx.Err()
	}
	j, err := s.Submit(tinyRun(), true)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if j.Status != StatusFailed {
		t.Fatalf("status = %s, want failed", j.Status)
	}
	if j.Failure == nil || j.Failure.Reason != ReasonDeadline {
		t.Fatalf("failure = %+v, want deadline-exceeded", j.Failure)
	}
}

// TestCancelStaysCanceled: user cancellation is not retried and not
// reclassified by the durable plane.
func TestCancelStaysCanceled(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxRetries: 3})
	running := make(chan struct{})
	s.exec = func(ctx context.Context, j *Job) (Artifacts, *Result, error) {
		close(running)
		<-ctx.Done()
		return nil, nil, context.Cause(ctx)
	}
	j, err := s.Submit(tinyRun(), true)
	if err != nil {
		t.Fatal(err)
	}
	<-running
	s.Cancel(j.ID, context.Canceled)
	waitJob(t, j)
	if j.Status != StatusCanceled {
		t.Fatalf("status = %s, want canceled", j.Status)
	}
	if j.Attempt != 1 {
		t.Fatalf("canceled job burned %d attempts, want 1", j.Attempt)
	}
}

// TestServerTornJournalTail: garbage appended to the journal (a torn
// final write) is ignored at boot — the intact prefix replays, the tear
// is truncated, and the server runs normally. Startup corruption is a
// degraded read, never a panic.
func TestServerTornJournalTail(t *testing.T) {
	jdir, cdir := durableDirs(t)
	c := mustCanonical(t, tinyRun())
	id := "j1-" + c.Key()[:8]

	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(jdir, "journal.wal")
	jn, _, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	appendRec(t, jn, jrec{Op: opAccepted, ID: id, Key: c.Key(), Req: c})
	jn.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe}) // torn frame header
	f.Close()

	s, err := NewServer(Config{Workers: 1, JournalDir: jdir, CacheDir: cdir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	if got := s.reg.CounterValue("serve.journal.torn_bytes"); got != 3 {
		t.Fatalf("serve.journal.torn_bytes = %d, want 3", got)
	}
	j, ok := s.Job(id)
	if !ok {
		t.Fatal("job before the tear was lost")
	}
	waitJob(t, j)
	if j.Status != StatusDone {
		t.Fatalf("recovered job: status=%s err=%q", j.Status, j.Err)
	}
}

// TestReplayToleratesRemovedKnobs: a journal written before the
// data-window, superblock, legacy-loop and priority request fields were
// removed still carries them in its accepted records, beside a run's
// parallel setting, which canonicalization now zeroes. Replay is lenient
// where the HTTP decoder is strict: the job must recover under the same
// key and settle.
func TestReplayToleratesRemovedKnobs(t *testing.T) {
	jdir, cdir := durableDirs(t)
	c := mustCanonical(t, tinyRun())
	id := "j1-" + c.Key()[:8]

	req, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	oldReq := strings.TrimSuffix(string(req), "}") + `,"no_data_window":true,"no_superblock":true,"legacy_loop":true,"priority":"interactive","parallel":4}`
	rec := fmt.Sprintf(`{"op":%q,"id":%q,"key":%q,"req":%s}`, opAccepted, id, c.Key(), oldReq)

	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	jn, _, err := journal.Open(filepath.Join(jdir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.Append([]byte(rec)); err != nil {
		t.Fatal(err)
	}
	jn.Close()

	s, err := NewServer(Config{Workers: 1, JournalDir: jdir, CacheDir: cdir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	j, ok := s.Job(id)
	if !ok {
		t.Fatal("accepted record carrying removed fields was not recovered")
	}
	if j.Key != c.Key() {
		t.Fatalf("recovered under key %s, want %s", j.Key, c.Key())
	}
	waitJob(t, j)
	if j.Status != StatusDone {
		t.Fatalf("recovered job: status=%s err=%q", j.Status, j.Err)
	}
}

// TestCacheCorruptionIsAMiss: a disk entry that is not exactly what Put
// wrote — truncated, bit-flipped, extended or removed, or a directory
// an older daemon left at the key — is detected at load, evicted, and
// reported as a miss, and a later Put can rewrite the entry.
func TestCacheCorruptionIsAMiss(t *testing.T) {
	corruptions := map[string]func(path string){
		"bit-flip": func(path string) {
			b, _ := os.ReadFile(path)
			b[len(b)/2] ^= 0x20
			os.WriteFile(path, b, 0o644)
		},
		"truncate": func(path string) {
			b, _ := os.ReadFile(path)
			os.WriteFile(path, b[:len(b)/2], 0o644)
		},
		"trailing-bytes": func(path string) {
			b, _ := os.ReadFile(path)
			os.WriteFile(path, append(b, 0), 0o644)
		},
		"remove": func(path string) {
			os.Remove(path)
		},
		"legacy-entry-directory": func(path string) {
			os.Remove(path)
			os.Mkdir(path, 0o755)
			os.WriteFile(filepath.Join(path, "summary.json"), []byte("{\"cycles\":12345}\n"), 0o644)
			os.WriteFile(filepath.Join(path, ".manifest"), []byte("{}\n"), 0o644)
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			art := Artifacts{
				"summary.json": []byte("{\"cycles\":12345}\n"),
				"counters.csv": []byte("seq,instrs\n0,99\n"),
			}
			c1, err := NewCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			key := "deadbeefdeadbeefdeadbeefdeadbeef"
			if err := c1.Put(key, art); err != nil {
				t.Fatal(err)
			}
			corrupt(filepath.Join(dir, key))

			// A fresh cache (the restarted daemon) must see a miss, not a
			// panic and not corrupt bytes.
			c2, err := NewCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := c2.Get(key); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			// The corrupt entry was evicted: Put can land a good copy.
			if _, err := os.Stat(filepath.Join(dir, key)); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("corrupt entry not evicted: %v", err)
			}
			if err := c2.Put(key, art); err != nil {
				t.Fatal(err)
			}
			c3, err := NewCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			got, ok := c3.Get(key)
			if !ok {
				t.Fatal("rewritten entry missing")
			}
			assertSameArtifacts(t, art, got)
		})
	}
}

// TestClientRetriesBackpressure: 429/503 + Retry-After and transient
// transport errors retry up to the cap; the final error names the
// attempt count.
func TestClientRetriesBackpressure(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1") // capped below by Base/Max
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"draining"}`)
			return
		}
		fmt.Fprint(w, `{"jobs":[]}`)
	}))
	defer ts.Close()

	cl := NewClient(ts.URL)
	cl.MaxAttempts, cl.backoffBase, cl.backoffMax = 4, time.Millisecond, 2*time.Millisecond
	jobs, err := cl.List(context.Background())
	if err != nil {
		t.Fatalf("retry loop did not recover: %v", err)
	}
	if len(jobs) != 0 || hits.Load() != 3 {
		t.Fatalf("got %d jobs after %d hits, want 0 after 3", len(jobs), hits.Load())
	}
}

func TestClientRetryExhaustion(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"queue full"}`)
	}))
	defer ts.Close()

	cl := NewClient(ts.URL)
	cl.MaxAttempts, cl.backoffBase, cl.backoffMax = 3, time.Millisecond, 2*time.Millisecond
	_, err := cl.List(context.Background())
	if err == nil {
		t.Fatal("exhausted retries returned no error")
	}
	if want := "after 3 attempts"; !strings.Contains(err.Error(), want) {
		t.Fatalf("final error %q does not surface the attempt count", err)
	}
}

func TestClientRetriesConnectError(t *testing.T) {
	// A listener that is closed immediately: connection refused.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := ts.URL
	ts.Close()

	cl := NewClient(url)
	cl.MaxAttempts, cl.backoffBase, cl.backoffMax = 2, time.Millisecond, 2*time.Millisecond
	_, err := cl.List(context.Background())
	if err == nil {
		t.Fatal("dead server returned no error")
	}
	if !strings.Contains(err.Error(), "after 2 attempts") {
		t.Fatalf("final error %q does not surface the attempt count", err)
	}
}

func TestClientRetryHonorsContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"draining"}`)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	cl := NewClient(ts.URL)
	cl.MaxAttempts, cl.backoffBase, cl.backoffMax = 1000, 5*time.Millisecond, 10*time.Millisecond
	_, err := cl.List(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("canceled retry loop returned %v, want deadline exceeded", err)
	}
}

// TestNoLeaseAfterBaseCancel: canceling the base context reaches the job
// contexts one by one, so a worker can pop a job whose own context still
// reads live while the base is already canceled. That job must settle
// with the base's cause, never take a lease.
func TestNoLeaseAfterBaseCancel(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	var leases atomic.Int32
	s.exec = func(ctx context.Context, j *Job) (Artifacts, *Result, error) {
		leases.Add(1)
		return nil, nil, errors.New("test: leased")
	}
	c := mustCanonical(t, tinyRun())
	s.mu.Lock()
	j := s.newJobLocked(c, c.Key(), true)
	s.registerLocked(j)
	// The state the propagation passes through: base canceled, this job's
	// context not yet.
	j.ctx, j.cancel = context.WithCancelCause(context.Background())
	s.mu.Unlock()
	s.baseCancel(errors.New("test: teardown"))
	s.queue.push(j)
	waitJob(t, j)
	if n := leases.Load(); n != 0 {
		t.Fatalf("a job popped after the base cancel took %d lease(s)", n)
	}
	if v := s.View(j, false); v.Status != StatusFailed || v.Error != "test: teardown" {
		t.Fatalf("job settled %s (%q), want failed with the base's cause", v.Status, v.Error)
	}
}
