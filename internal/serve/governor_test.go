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

// --- budget estimation ------------------------------------------------

// TestEstimateBudget checks the admission-time envelope: a run is sized
// by its config's physical memory plus the per-machine overhead, a
// sweep by its effective width, and the wall allowance follows the
// declared size class.
func TestEstimateBudget(t *testing.T) {
	run := mustCanonical(t, tinyRun())
	cfg, err := run.config()
	if err != nil {
		t.Fatal(err)
	}
	b := estimateBudget(run)
	if want := cfg.PhysMem + estMachineOverhead; b.EstBytes != want {
		t.Fatalf("run EstBytes = %d, want %d (physmem + overhead)", b.EstBytes, want)
	}
	if b.MaxWall == 0 {
		t.Fatalf("run budget leaves wall time unbounded: %+v", b)
	}
	small := mustCanonical(t, &Request{Kind: KindRun, App: "dense_mmm", Size: "small", Topology: []int{3}})
	bs := estimateBudget(small)
	if bs.MaxWall <= b.MaxWall {
		t.Fatalf("small budget (%+v) not looser than test budget (%+v)", bs, b)
	}

	sweep := mustCanonical(t, &Request{Kind: KindSweep, Apps: []string{"dense_mmm"}, Size: "test", Seqs: 2, Exp: "table1", Parallel: 2})
	sb := estimateBudget(sweep)
	perMachine := b.EstBytes // same default physmem per machine
	if want := 2 * perMachine; sb.EstBytes != want {
		t.Fatalf("sweep(width 2) EstBytes = %d, want %d", sb.EstBytes, want)
	}
	if sb.MaxWall == 0 {
		t.Fatal("sweep budget leaves wall time unbounded")
	}
	// Width caps at the grid: one app is 3 points (1P/MISP/SMP), so a
	// huge Parallel must not inflate the estimate past 3 machines.
	wide := mustCanonical(t, &Request{Kind: KindSweep, Apps: []string{"dense_mmm"}, Size: "test", Seqs: 2, Exp: "table1", Parallel: 64})
	if wb := estimateBudget(wide); wb.EstBytes != 3*perMachine {
		t.Fatalf("sweep(width 64, 3 points) EstBytes = %d, want %d", wb.EstBytes, 3*perMachine)
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

// TestShedSparesCoalescedAndCached: at the shed watermark every fresh
// admission bounces with ErrPressure, while coalesced submissions and
// cache hits still land — they cost no new memory.
func TestShedSparesCoalescedAndCached(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MemBudget: 1 << 30, pressureTick: quietTick})
	block := make(chan struct{})
	s.exec = func(ctx context.Context, j *Job) (Artifacts, *Result, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return Artifacts{"summary.json": []byte("{}")}, &Result{ChecksumOK: true}, nil
	}

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
	close(block)
	waitJob(t, j)
	hit, err := s.Submit(tinyRun(), true)
	if err != nil || !hit.Cached {
		t.Fatalf("cache hit under shed: err %v, want a cached job", err)
	}
	if got := s.reg.CounterValue("serve.pressure.sheds"); got != 1 {
		t.Fatalf("serve.pressure.sheds = %d, want 1", got)
	}
}

// TestOverBudgetRejected: a job whose estimate cannot ever fit the
// budget is a 413, not a retryable 429 — waiting will not shrink it.
func TestOverBudgetRejected(t *testing.T) {
	// tinyRun estimates physmem (128MiB) + overhead; a 64MiB budget can
	// never hold it.
	s := newTestServer(t, Config{Workers: 1, MemBudget: 64 << 20, pressureTick: quietTick})
	if _, err := s.Submit(tinyRun(), true); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("err = %v, want ErrOverBudget", err)
	}
	if got := s.reg.CounterValue("serve.rejected.over_budget"); got != 1 {
		t.Fatalf("serve.rejected.over_budget = %d, want 1", got)
	}
	// The refused job left no record behind.
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("%d job records after a rejected admission, want 0", len(jobs))
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(tinyRun())
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("HTTP status = %d, want 413", resp.StatusCode)
	}
}

// TestCommitmentShedding: admission is bounded by the sum of admitted-
// but-unsettled estimates, so a burst of large jobs sheds before the
// heap ever grows — and the commitment is released when jobs settle.
func TestCommitmentShedding(t *testing.T) {
	// Budget fits one tinyRun estimate (160MiB) but not two.
	s := newTestServer(t, Config{Workers: 1, MemBudget: 200 << 20, pressureTick: quietTick})
	block := make(chan struct{})
	s.exec = func(ctx context.Context, j *Job) (Artifacts, *Result, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return Artifacts{"summary.json": []byte("{}")}, &Result{ChecksumOK: true}, nil
	}

	first := &Request{Kind: KindRun, App: "dense_mmm", Size: "test", Topology: []int{3}}
	j1, err := s.Submit(first, true)
	if err != nil {
		t.Fatal(err)
	}
	second := &Request{Kind: KindRun, App: "dense_mmm", Size: "test", Topology: []int{2}}
	if _, err := s.Submit(second, true); !errors.Is(err, ErrPressure) {
		t.Fatalf("second admission err = %v, want ErrPressure (commitment shed)", err)
	}
	close(block)
	waitJob(t, j1)
	// Settling released the commitment: the second job now fits.
	j2, err := s.Submit(second, true)
	if err != nil {
		t.Fatalf("admission after settle: %v", err)
	}
	waitJob(t, j2)
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
