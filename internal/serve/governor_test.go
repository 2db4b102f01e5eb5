package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// quietGovernor returns governance config knobs that arm the admission
// checks but keep the background monitor from ever ticking, so tests
// drive governTick (or the pressure level directly) deterministically.
const quietTick = time.Hour

// --- drain estimator --------------------------------------------------

// TestDrainEstimatorTable pins the Retry-After estimate down case by
// case: scaling of the average wall time by queue depth over workers,
// clamped to [retryAfterFloor, maxRetryAfter] (the satellite contract:
// queue-full 429s report the estimated drain time, never below the
// floor).
func TestDrainEstimatorTable(t *testing.T) {
	cases := []struct {
		name    string
		avg     time.Duration
		queued  int
		workers int
		want    time.Duration
	}{
		{"no-data-floor", 0, 10, 2, retryAfterFloor},
		{"no-data-min-1s", 0, 0, 1, time.Second},
		{"scales-by-depth", 2 * time.Second, 3, 2, 4 * time.Second},
		{"divides-by-workers", 2 * time.Second, 7, 4, 4 * time.Second},
		{"below-floor-clamps", 2 * time.Second, 0, 4, time.Second},
		{"caps-at-max", time.Hour, 100, 1, maxRetryAfter},
		{"zero-workers-as-one", 2 * time.Second, 1, 0, 4 * time.Second},
		{"negative-queue-as-empty", 2 * time.Second, -5, 1, 2 * time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e drainEstimator
			if tc.avg > 0 {
				e.observe(tc.avg) // first sample seeds the average exactly
			}
			if got := e.estimate(tc.queued, tc.workers); got != tc.want {
				t.Fatalf("estimate(%d, %d) with avg %v = %v, want %v",
					tc.queued, tc.workers, tc.avg, got, tc.want)
			}
		})
	}
}

// TestDrainEstimatorEWMA: the moving average seeds on the first sample
// and then folds with alpha 1/4, so one outlier moves the hint without
// owning it.
func TestDrainEstimatorEWMA(t *testing.T) {
	var e drainEstimator
	e.observe(4 * time.Second)
	if got := e.avgWall(); got != 4*time.Second {
		t.Fatalf("after first sample avg = %v, want 4s", got)
	}
	e.observe(8 * time.Second) // 4 + (8-4)/4 = 5
	if got := e.avgWall(); got != 5*time.Second {
		t.Fatalf("after second sample avg = %v, want 5s", got)
	}
	e.observe(0) // non-positive samples are ignored
	if got := e.avgWall(); got != 5*time.Second {
		t.Fatalf("zero sample moved avg to %v", got)
	}
}

// TestDrainEstimatorMonotone: a deeper queue never promises a faster
// retry — the estimate is nondecreasing in queue depth.
func TestDrainEstimatorMonotone(t *testing.T) {
	var e drainEstimator
	e.observe(1500 * time.Millisecond)
	prev := time.Duration(0)
	for queued := 0; queued <= 64; queued++ {
		got := e.estimate(queued, 2)
		if got < prev {
			t.Fatalf("estimate decreased at depth %d: %v < %v", queued, got, prev)
		}
		prev = got
	}
}

// --- wall allowance -------------------------------------------------

// TestWallLimit pins the per-size wall allowance of a governed job, row
// by row, and its merge with JobTimeout in jobDeadline: the tighter of
// the two wins, and an ungoverned job has only JobTimeout.
func TestWallLimit(t *testing.T) {
	for _, tc := range []struct {
		kind, size string
		want       time.Duration
	}{
		{KindRun, "test", 5 * time.Minute},
		{KindRun, "small", 30 * time.Minute},
		{KindRun, "ref", 4 * time.Hour},
		{KindSweep, "test", 20 * time.Minute},
		{KindSweep, "small", 2 * time.Hour},
		{KindSweep, "ref", 16 * time.Hour},
	} {
		req := &Request{Kind: tc.kind, App: "dense_mmm", Size: tc.size}
		if got := wallLimit(mustCanonical(t, req)); got != tc.want {
			t.Errorf("wallLimit(%s %s) = %v, want %v", tc.kind, tc.size, got, tc.want)
		}
	}

	j := &Job{Req: mustCanonical(t, tinyRun()), Created: time.Now()}
	for _, tc := range []struct {
		budget  uint64
		timeout time.Duration
		want    time.Duration // 0 = no deadline
	}{
		{0, 0, 0},
		{0, time.Hour, time.Hour},
		{1 << 30, 0, 5 * time.Minute},
		{1 << 30, time.Hour, 5 * time.Minute},
		{1 << 30, time.Minute, time.Minute},
	} {
		s := &Server{cfg: Config{MemBudget: tc.budget, JobTimeout: tc.timeout}}
		at, ok := s.jobDeadline(j)
		if ok != (tc.want > 0) || (ok && at.Sub(j.Created) != tc.want) {
			t.Errorf("budget %d, timeout %v: deadline %v after admission (set %v), want %v",
				tc.budget, tc.timeout, at.Sub(j.Created), ok, tc.want)
		}
	}
}

// --- pressure monitor -------------------------------------------------

// TestPressureEscalation drives the monitor synchronously through the
// watermarks with an injected heap reader and checks the level ladder,
// the queue hold at critical, the transition metrics, and the log lines.
func TestPressureEscalation(t *testing.T) {
	var logs []string
	s := newTestServer(t, Config{
		Workers: 1, MemBudget: 1000, pressureTick: quietTick,
		Logf: func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) },
	})
	heap := uint64(0)
	s.heapBytes = func() uint64 { return heap }

	steps := []struct {
		heap uint64
		want pressureLevel
		held bool
	}{
		{0, pressureNominal, false},
		{699, pressureNominal, false},
		{700, pressureShed, false},    // 0.70 × 1000
		{949, pressureShed, false},    // between the watermarks
		{950, pressureCritical, true}, // 0.95 × 1000
		{100, pressureNominal, false}, // recovery releases the hold
	}
	for _, st := range steps {
		heap = st.heap
		s.governTick()
		if got := s.level(); got != st.want {
			t.Fatalf("heap %d: level = %s, want %s", st.heap, got, st.want)
		}
		if got := s.queue.held(); got != st.held {
			t.Fatalf("heap %d: queue hold = %v, want %v", st.heap, got, st.held)
		}
	}
	if got := s.reg.CounterValue("serve.pressure.transitions"); got != 3 {
		t.Fatalf("serve.pressure.transitions = %d, want 3", got)
	}
	if got := s.reg.CounterValue("serve.pressure.heap_bytes"); got != 100 {
		t.Fatalf("serve.pressure.heap_bytes gauge = %d, want last reading 100", got)
	}
	joined := strings.Join(logs, "\n")
	for _, want := range []string{"nominal -> shed", "shed -> critical", "critical -> nominal"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("logs missing transition %q:\n%s", want, joined)
		}
	}
}

// blockExec parks every lease until the returned release is called (a
// lease cut loose by a crash or drain fails with its context's cause).
// Install before Submit; release may be called more than once.
func blockExec(s *Server) (release func()) {
	block := make(chan struct{})
	s.exec = func(ctx context.Context, j *Job) (Artifacts, *Result, error) {
		select {
		case <-block:
		case <-ctx.Done():
			return nil, nil, context.Cause(ctx)
		}
		return Artifacts{"summary.json": []byte("{}")}, &Result{ChecksumOK: true}, nil
	}
	return sync.OnceFunc(func() { close(block) })
}

// TestShedSparesCoalescedAndCached: at the shed watermark every fresh
// admission bounces with ErrPressure, while coalesced submissions and
// cache hits still land — they cost no new memory.
func TestShedSparesCoalescedAndCached(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MemBudget: 1 << 30, pressureTick: quietTick})
	release := blockExec(s)

	j, err := s.Submit(tinyRun(), true)
	if err != nil {
		t.Fatal(err)
	}
	s.pressure.Store(int32(pressureShed))
	fresh := &Request{Kind: KindRun, App: "dense_mmm", Size: "test", Topology: []int{2}}
	if _, err := s.Submit(fresh, true); !errors.Is(err, ErrPressure) {
		t.Fatalf("fresh admission at shed level: err = %v, want ErrPressure", err)
	}
	if j2, err := s.Submit(tinyRun(), true); err != nil || j2 != j {
		t.Fatalf("coalesce under shed: job %p err %v, want %p nil", j2, err, j)
	}
	release()
	waitJob(t, j)
	hit, err := s.Submit(tinyRun(), true)
	if err != nil || !hit.Cached {
		t.Fatalf("cache hit under shed: err %v, want a cached job", err)
	}
	if got := s.reg.CounterValue("serve.pressure.sheds"); got != 1 {
		t.Fatalf("serve.pressure.sheds = %d, want 1", got)
	}
}

// TestSmallBudgetAdmitsRun: a budget below a machine's configured
// PhysMem (128 MiB) still admits and completes a run, in-process and
// over HTTP — only the measured heap sheds, and a finished machine holds
// a few MiB of it.
func TestSmallBudgetAdmitsRun(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MemBudget: 64 << 20, pressureTick: quietTick})
	j, err := s.Submit(tinyRun(), true)
	if err != nil {
		t.Fatalf("admission at a 64 MiB budget: %v", err)
	}
	waitJob(t, j)
	if j.Status != StatusDone {
		t.Fatalf("status=%s err=%q", j.Status, j.Err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(&Request{Kind: KindRun, App: "dense_mmm", Size: "test", Topology: []int{2}})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP status = %d, want 202 or 200", resp.StatusCode)
	}
}

// TestBudgetAdmitsConcurrentRuns: admitted-but-unsettled jobs charge the
// budget nothing of their own — one running and one queued run both
// land at a budget that the old 160 MiB per-run estimate fitted once.
func TestBudgetAdmitsConcurrentRuns(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MemBudget: 200 << 20, pressureTick: quietTick})
	release := blockExec(s)
	defer release() // a failed admission must not leave the drain waiting
	var jobs []*Job
	for _, n := range []int{3, 2} {
		j, err := s.Submit(&Request{Kind: KindRun, App: "dense_mmm", Size: "test", Topology: []int{n}}, true)
		if err != nil {
			t.Fatalf("admission of run %d: %v", len(jobs)+1, err)
		}
		jobs = append(jobs, j)
	}
	release()
	for _, j := range jobs {
		waitJob(t, j)
	}
	if got := s.reg.CounterValue("serve.pressure.sheds"); got != 0 {
		t.Fatalf("serve.pressure.sheds = %d, want 0", got)
	}
}

// TestReplayedBacklogAdmitsFresh: a governed daemon restarted over a
// journal with unsettled jobs re-enqueues them without charging the
// budget for them, so fresh work is admitted at once.
func TestReplayedBacklogAdmitsFresh(t *testing.T) {
	jdir, cdir := durableDirs(t)
	s1, err := NewServer(Config{Workers: 1, JournalDir: jdir, CacheDir: cdir})
	if err != nil {
		t.Fatal(err)
	}
	blockExec(s1) // never released: the crash below cuts the lease loose
	for _, n := range []int{2, 3} {
		if _, err := s1.Submit(&Request{Kind: KindRun, App: "dense_mmm", Size: "small", Topology: []int{n}}, true); err != nil {
			t.Fatal(err)
		}
	}
	crash(s1)

	s2 := newTestServer(t, Config{
		Workers: 1, JournalDir: jdir, CacheDir: cdir,
		MemBudget: 256 << 20, pressureTick: quietTick,
	})
	if _, err := s2.Submit(tinyRun(), true); err != nil {
		t.Fatalf("fresh admission behind a replayed backlog: %v", err)
	}
	jobs := s2.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("%d jobs after restart, want 2 replayed + 1 fresh", len(jobs))
	}
	for _, j := range jobs {
		waitJob(t, j)
		if j.Status != StatusDone {
			t.Fatalf("job %s: status=%s err=%q", j.ID, j.Status, j.Err)
		}
	}
}

// TestHealthzProbes: /healthz/live stays 200 under pressure and through
// drain (alive ≠ ready; restarting a shedding daemon would destroy its
// backlog), while /healthz/ready flips to 503 — with a Retry-After hint
// — at every level that sheds and while draining: readiness agrees with
// admission. /healthz gains the pressure block when governed.
func TestHealthzProbes(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MemBudget: 1 << 30, pressureTick: quietTick})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, map[string]any, http.Header) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body, resp.Header
	}

	for _, lv := range []struct {
		level  pressureLevel
		code   int
		status string
		held   bool
	}{
		{pressureNominal, http.StatusOK, "ready", false},
		{pressureShed, http.StatusServiceUnavailable, "shed", false},
		{pressureCritical, http.StatusServiceUnavailable, "critical", true},
	} {
		s.pressure.Store(int32(lv.level))
		s.queue.setHold(lv.held)
		code, body, hdr := get("/healthz/ready")
		if code != lv.code || body["status"] != lv.status {
			t.Fatalf("ready (%s): %d %v, want %d %q", lv.level, code, body, lv.code, lv.status)
		}
		if ra, err := strconv.Atoi(hdr.Get("Retry-After")); code != http.StatusOK && (err != nil || ra < 1) {
			t.Fatalf("ready 503 (%s) Retry-After = %q, want integer >= 1", lv.level, hdr.Get("Retry-After"))
		}
		if code, body, _ := get("/healthz/live"); code != http.StatusOK || body["status"] != "live" {
			t.Fatalf("live (%s): %d %v", lv.level, code, body)
		}
		_, body, _ = get("/healthz")
		p, ok := body["pressure"].(map[string]any)
		if !ok {
			t.Fatal("/healthz on a governed daemon lacks the pressure block")
		}
		if p["level"] != lv.level.String() || p["held"] != lv.held {
			t.Fatalf("/healthz pressure = %v, want level %s held %v", p, lv.level, lv.held)
		}
	}
	s.queue.setHold(false)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.Drain(ctx)
	if code, body, _ := get("/healthz/ready"); code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("ready (draining): %d %v", code, body)
	}
	if code, _, _ := get("/healthz/live"); code != http.StatusOK {
		t.Fatal("liveness flipped while draining")
	}
}
