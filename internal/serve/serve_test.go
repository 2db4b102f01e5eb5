package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tinyRun is the smallest real simulation the service can be exercised
// with end to end: one workload at test size on a 1x4 machine.
func tinyRun() *Request {
	return &Request{Kind: KindRun, App: "dense_mmm", Size: "test", Topology: []int{3}}
}

func mustCanonical(t *testing.T, req *Request) *Request {
	t.Helper()
	c, err := req.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s
}

// waitJob blocks until j is terminal (bounded).
func waitJob(t *testing.T, j *Job) {
	t.Helper()
	// Generous ceiling: under -race with parallel chaos seeds and
	// sibling package binaries contending for the host, a preempted-
	// and-resumed tiny run can legitimately take over a minute. A true
	// hang still fails — it just reports later.
	select {
	case <-j.Done():
	case <-time.After(3 * time.Minute):
		t.Fatalf("job %s did not finish", j.ID)
	}
}

// --- cache-key determinism -------------------------------------------

// TestKeyIgnoresExecutionKnobs: the simulator is bit-identical across
// host parallelism, so requests differing only in it must share one
// cache entry.
func TestKeyIgnoresExecutionKnobs(t *testing.T) {
	base := mustCanonical(t, &Request{Kind: KindSweep, Apps: []string{"dense_mmm"}, Size: "test"})
	want := base.Key()
	for _, parallel := range []int{1, 4, 7} {
		req := &Request{Kind: KindSweep, Apps: []string{"dense_mmm"}, Size: "test", Parallel: parallel}
		if got := mustCanonical(t, req).Key(); got != want {
			t.Fatalf("parallel %d changed the cache key: %s != %s", parallel, got, want)
		}
	}
}

// TestKeyCoversResultFields: every result-affecting field must perturb
// the key — a collision here would serve the wrong simulation.
func TestKeyCoversResultFields(t *testing.T) {
	sc := uint64(100)
	mutations := map[string]func(r *Request){
		"app":        func(r *Request) { r.App = "kmeans" },
		"mode":       func(r *Request) { r.Mode = "thread" },
		"topology":   func(r *Request) { r.Topology = []int{1, 1} },
		"trace":      func(r *Request) { r.Trace = true },
		"size":       func(r *Request) { r.Size = "small" },
		"signal":     func(r *Request) { r.SignalCost = &sc },
		"ringpolicy": func(r *Request) { r.RingPolicy = "monitor-cr" },
		"watchdog":   func(r *Request) { r.Watchdog = 1_000_000 },
		"faulton":    func(r *Request) { r.FaultPeriod = 50_000 },
	}
	base := mustCanonical(t, tinyRun())
	seen := map[string]string{"base": base.Key()}
	for name, mutate := range mutations {
		req := tinyRun()
		mutate(req)
		key := mustCanonical(t, req).Key()
		for prev, prevKey := range seen {
			if key == prevKey {
				t.Fatalf("mutation %q collides with %q", name, prev)
			}
		}
		seen[name] = key
	}

	// With the fault plane on, seed and kind set are result-affecting
	// too (the fault schedule derives from them).
	faulty := func() *Request {
		r := tinyRun()
		r.FaultPeriod = 50_000
		return r
	}
	fbase := mustCanonical(t, faulty()).Key()
	r := faulty()
	r.FaultSeed = 7
	if mustCanonical(t, r).Key() == fbase {
		t.Fatal("fault seed did not perturb the key")
	}
	r = faulty()
	r.FaultKinds = []string{"signal-drop"}
	if mustCanonical(t, r).Key() == fbase {
		t.Fatal("fault kind subset did not perturb the key")
	}
}

// TestKeyFaultKindCanonicalization: the fault plan depends on the kind
// SET, so spelling order and duplicates must not perturb the key, and
// an explicit all-kinds list is distinct from the implicit default only
// if the schedule differs (it does not — but the canonical rendering
// differs, so we only require order/dup insensitivity here).
func TestKeyFaultKindCanonicalization(t *testing.T) {
	mk := func(kinds ...string) string {
		r := tinyRun()
		r.FaultPeriod = 50_000
		r.FaultKinds = kinds
		return mustCanonical(t, r).Key()
	}
	a := mk("signal-drop", "ams-stall")
	b := mk("ams-stall", "signal-drop")
	c := mk("ams-stall", "signal-drop", "ams-stall")
	if a != b || a != c {
		t.Fatalf("kind order/duplicates perturbed the key: %s %s %s", a, b, c)
	}
}

// TestCanonicalizeZeroesInapplicable: sweep fields on a run request
// (and vice versa) must not leak into the key.
func TestCanonicalizeZeroesInapplicable(t *testing.T) {
	r := tinyRun()
	r.Seqs = 16
	r.Exp = "table1"
	r.Apps = []string{"kmeans"}
	if got := mustCanonical(t, r).Key(); got != mustCanonical(t, tinyRun()).Key() {
		t.Fatal("sweep-only fields leaked into a run request's key")
	}
	// Inert fault fields normalize away when the plane is off.
	r = tinyRun()
	r.FaultSeed = 99
	r.FaultKinds = []string{"signal-drop"}
	if got := mustCanonical(t, r).Key(); got != mustCanonical(t, tinyRun()).Key() {
		t.Fatal("inert fault fields (period=0) leaked into the key")
	}
}

// --- execution determinism through the service -----------------------

// TestExecuteDeterministicAcrossKnobs: the artifacts (not just the key)
// must be byte-identical across execution strategies — this is the
// soundness condition for serving a parallel sweep's bytes to a client
// that asked with -parallel 1, and for serving a run's summary.json
// (which embeds the canonical request) to every request with its key.
func TestExecuteDeterministicAcrossKnobs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		req       func() *Request
		parallels []int
	}{
		{"sweep", func() *Request {
			return &Request{Kind: KindSweep, Apps: []string{"dense_mmm", "kmeans"}, Size: "test", Seqs: 4}
		}, []int{4, 1}},
		{"run", func() *Request { return &Request{App: "gauss", Size: "test", Topology: []int{3}} }, []int{4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := mustCanonical(t, tc.req())
			art1, _, err := Execute(context.Background(), base)
			if err != nil {
				t.Fatal(err)
			}
			for _, parallel := range tc.parallels {
				req := tc.req()
				req.Parallel = parallel
				c := mustCanonical(t, req)
				if c.Key() != base.Key() {
					t.Fatalf("parallel %d changed the key", parallel)
				}
				art2, _, err := Execute(context.Background(), c)
				if err != nil {
					t.Fatal(err)
				}
				assertSameArtifacts(t, art1, art2)
			}
		})
	}
}

func assertSameArtifacts(t *testing.T, a, b Artifacts) {
	t.Helper()
	if fmt.Sprint(a.Names()) != fmt.Sprint(b.Names()) {
		t.Fatalf("artifact sets differ: %v vs %v", a.Names(), b.Names())
	}
	for name := range a {
		if !bytes.Equal(a[name], b[name]) {
			t.Fatalf("artifact %s differs between execution strategies", name)
		}
	}
}

// TestSummaryKernelMatchesMetrics: a run's summary.json and metrics.txt
// report the same kernel activity. On [6,0] the shredded thread yields
// on the plain processor and migrates, a context switch the registry
// once missed.
func TestSummaryKernelMatchesMetrics(t *testing.T) {
	for _, top := range [][]int{{6, 0}, {3, 0, 0, 0, 0}, {7}} {
		art, _, err := Execute(context.Background(), mustCanonical(t, &Request{App: "raytracer", Size: "test", Topology: top}))
		if err != nil {
			t.Fatal(err)
		}
		var sum struct {
			Kernel map[string]uint64 `json:"kernel"`
		}
		if err := json.Unmarshal(art["summary.json"], &sum); err != nil {
			t.Fatal(err)
		}
		metrics := map[string]uint64{}
		for _, line := range strings.Split(string(art["metrics.txt"]), "\n") {
			var name string
			var v uint64
			if n, _ := fmt.Sscanf(line, "counter %s %d", &name, &v); n == 2 {
				metrics[name] = v
			}
		}
		for field, metric := range map[string]string{
			"ticks": "kernel.ticks", "switches": "kernel.ctx_switches", "syscalls": "kernel.syscalls",
			"page_faults": "kernel.page_faults", "ipis": "kernel.ipis",
		} {
			if got, want := metrics[metric], sum.Kernel[field]; got != want {
				t.Errorf("%v: metrics.txt %s %d, summary.json kernel.%s %d", top, metric, got, field, want)
			}
		}
	}
}

// --- end-to-end service behavior -------------------------------------

// TestServerCacheHit: the tentpole property end to end — submitting the
// same canonical request twice simulates once; the second submission is
// an instant cache hit with byte-identical artifacts, even when its
// execution-only knobs differ.
func TestServerCacheHit(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	j1, err := s.Submit(tinyRun(), false)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j1)
	v1 := s.View(j1, false)
	if v1.Status != StatusDone || v1.Cached {
		t.Fatalf("first run: status=%s cached=%v err=%q", v1.Status, v1.Cached, v1.Error)
	}
	sum1, ok := s.Artifact(j1, "summary.json")
	if !ok {
		t.Fatal("first run produced no summary.json")
	}

	req2 := tinyRun()
	req2.Parallel = 4 // same key: must not re-simulate
	j2, err := s.Submit(req2, false)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j2)
	v2 := s.View(j2, false)
	if v2.Status != StatusDone || !v2.Cached {
		t.Fatalf("second run: status=%s cached=%v, want done cache hit", v2.Status, v2.Cached)
	}
	sum2, ok := s.Artifact(j2, "summary.json")
	if !ok {
		t.Fatal("cache hit lost summary.json")
	}
	if !bytes.Equal(sum1, sum2) {
		t.Fatal("cached artifact differs from the original")
	}
	s.mu.Lock()
	hits := s.reg.CounterValue("serve.cache.hits")
	s.mu.Unlock()
	if hits == 0 {
		t.Fatal("cache recorded no hit")
	}
}

// TestServerSingleFlight: identical requests submitted while the first
// is still in flight coalesce onto one job.
func TestServerSingleFlight(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	s.exec = func(ctx context.Context, j *Job) (Artifacts, *Result, error) {
		<-release
		return Artifacts{"summary.json": []byte("{}\n")}, &Result{ChecksumOK: true}, nil
	}
	j1, err := s.Submit(tinyRun(), false)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(tinyRun(), false)
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatalf("identical in-flight requests got distinct jobs %s and %s", j1.ID, j2.ID)
	}
	close(release)
	waitJob(t, j1)
}

// TestServerQueueFull: admission control — with one worker wedged and
// the depth-1 queue occupied, the next distinct request is rejected
// with ErrQueueFull, and the rejection leaves no job record behind.
func TestServerQueueFull(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{}, 8)
	s.exec = func(ctx context.Context, j *Job) (Artifacts, *Result, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return Artifacts{"summary.json": []byte("{}\n")}, &Result{ChecksumOK: true}, nil
	}

	reqN := func(i int) *Request {
		r := tinyRun()
		r.Watchdog = uint64(1_000_000 + i) // distinct keys
		return r
	}
	if _, err := s.Submit(reqN(0), true); err != nil {
		t.Fatal(err)
	}
	<-started // worker is wedged on job 0; the queue itself is empty
	if _, err := s.Submit(reqN(1), true); err != nil {
		t.Fatal(err) // fills the queue
	}
	_, err := s.Submit(reqN(2), true)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull submit: err = %v, want ErrQueueFull", err)
	}
	if n := len(s.Jobs()); n != 2 {
		t.Fatalf("rejected submit left a job record: %d jobs, want 2", n)
	}
}

// TestServerDrainUnderLoad: every accepted job settles during a drain —
// none hang, none vanish — and post-drain submissions are rejected with
// ErrDraining.
func TestServerDrainUnderLoad(t *testing.T) {
	s, err := NewServer(Config{Workers: 2, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	s.exec = func(ctx context.Context, j *Job) (Artifacts, *Result, error) {
		time.Sleep(10 * time.Millisecond)
		return Artifacts{"summary.json": []byte("{}\n")}, &Result{ChecksumOK: true}, nil
	}
	var jobs []*Job
	for i := 0; i < 10; i++ {
		r := tinyRun()
		r.Watchdog = uint64(1_000_000 + i)
		j, err := s.Submit(r, true)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, j := range jobs {
		v := s.View(j, false)
		if v.Status != StatusDone {
			t.Fatalf("job %s settled as %s (%s), want done", j.ID, v.Status, v.Error)
		}
	}
	if _, err := s.Submit(tinyRun(), true); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: err = %v, want ErrDraining", err)
	}
}

// TestServerDrainDeadline: when the drain budget expires, wedged jobs
// are canceled (not abandoned) and every record still settles.
func TestServerDrainDeadline(t *testing.T) {
	s, err := NewServer(Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.exec = func(ctx context.Context, j *Job) (Artifacts, *Result, error) {
		<-ctx.Done() // wedged until canceled, like a long simulation
		return nil, nil, ctx.Err()
	}
	var jobs []*Job
	for i := 0; i < 3; i++ {
		r := tinyRun()
		r.Watchdog = uint64(1_000_000 + i)
		j, err := s.Submit(r, true)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain: err = %v, want DeadlineExceeded", err)
	}
	for _, j := range jobs {
		v := s.View(j, false)
		if v.Status != StatusCanceled {
			t.Fatalf("job %s settled as %s, want canceled", j.ID, v.Status)
		}
	}
	if _, ok := s.cache.Get(jobs[0].Key); ok {
		t.Fatal("canceled job left a cache entry (partial artifacts)")
	}
}

// TestHTTPDisconnectCancels: a synchronous (?wait=1) submission whose
// client goes away is canceled — the connection is the lease on the
// job.
func TestHTTPDisconnectCancels(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	started := make(chan struct{}, 1)
	s.exec = func(ctx context.Context, j *Job) (Artifacts, *Result, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, nil, ctx.Err()
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	body := strings.NewReader(`{"kind":"run","app":"dense_mmm","size":"test","topology":[3]}`)
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs?wait=1", body)
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(hr)
		errc <- err
	}()
	<-started // the job is running; the client now disconnects
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled request returned no error")
	}

	jobs := s.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("expected 1 job, got %d", len(jobs))
	}
	waitJob(t, jobs[0])
	if v := s.View(jobs[0], false); v.Status != StatusCanceled {
		t.Fatalf("abandoned job settled as %s, want canceled", v.Status)
	}
}

// TestHTTPAPI: the wire surface — submit-wait round trip, artifact
// fetch, healthz, metrics, and 429 mapping.
func TestHTTPAPI(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	ctx := context.Background()

	v, err := cl.Submit(ctx, tinyRun(), true)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusDone || v.Cached {
		t.Fatalf("submit-wait: status=%s cached=%v err=%q", v.Status, v.Cached, v.Error)
	}
	if len(v.Artifacts) == 0 {
		t.Fatal("done job lists no artifacts")
	}
	data, err := cl.Artifact(ctx, v.ID, "summary.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"checksum_ok": true`)) {
		t.Fatalf("summary.json missing checksum_ok: %s", data)
	}

	// Resubmit: cache hit over the wire.
	v2, err := cl.Submit(ctx, tinyRun(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Cached {
		t.Fatal("second submission was not a cache hit")
	}

	// healthz and metrics respond and carry the serve gauges.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Cache map[string]uint64 `json:"cache"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("healthz: %d, %v", resp.StatusCode, err)
	}
	if health.Cache["hits"] != 1 || health.Cache["misses"] != 1 {
		t.Fatalf("healthz cache block = %v, want 1 hit and 1 miss", health.Cache)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	mbuf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"serve.jobs.submitted", "serve.cache.hits", "serve.queue.depth"} {
		if !strings.Contains(mbuf.String(), want) {
			t.Fatalf("metrics output missing %s:\n%s", want, mbuf.String())
		}
	}

	// Wedge the worker and fill the queue: the next submit must be 429
	// with a Retry-After hint.
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{}, 4)
	s.exec = func(ctx context.Context, j *Job) (Artifacts, *Result, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return Artifacts{"summary.json": []byte("{}\n")}, &Result{ChecksumOK: true}, nil
	}
	submit := func(i int) *http.Response {
		body := fmt.Sprintf(`{"kind":"run","app":"dense_mmm","size":"test","topology":[3],"watchdog":%d}`, 1_000_000+i)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := submit(0); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 0: %d", resp.StatusCode)
	}
	<-started
	if resp := submit(1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: %d", resp.StatusCode)
	}
	resp429 := submit(2)
	if resp429.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overfull submit: %d, want 429", resp429.StatusCode)
	}
	// The hint is a drain-time estimate floored at retryAfterFloor (1s):
	// assert the floor, not an exact value — a loaded queue may
	// legitimately estimate longer.
	ra, err := strconv.Atoi(resp429.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want numeric >= 1", resp429.Header.Get("Retry-After"))
	}
}

// TestCacheDiskPersistence: a cache entry survives a daemon restart —
// a new server over the same directory serves the hit without
// re-simulating.
func TestCacheDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	j1, err := s1.Submit(tinyRun(), false)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j1)
	if v := s1.View(j1, false); v.Status != StatusDone {
		t.Fatalf("first run: %s (%s)", v.Status, v.Error)
	}
	sum1, _ := s1.Artifact(j1, "summary.json")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s1.Drain(ctx)

	s2 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	s2.exec = func(ctx context.Context, j *Job) (Artifacts, *Result, error) {
		t.Error("restarted server re-simulated a persisted request")
		return nil, nil, errors.New("unreachable")
	}
	j2, err := s2.Submit(tinyRun(), false)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j2)
	v := s2.View(j2, false)
	if v.Status != StatusDone || !v.Cached {
		t.Fatalf("restart hit: status=%s cached=%v", v.Status, v.Cached)
	}
	sum2, ok := s2.Artifact(j2, "summary.json")
	if !ok || !bytes.Equal(sum1, sum2) {
		t.Fatal("persisted artifact differs from the original")
	}
}

// TestMetricsListedAtZero: a fresh server's /metrics lists the
// counters its failure paths bump, at zero, before any failure happens.
func TestMetricsListedAtZero(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	for _, name := range []string{"serve.cache.put_errors", "serve.journal.append_errors"} {
		if !regexp.MustCompile(`(?m)^counter ` + regexp.QuoteMeta(name) + ` +0$`).MatchString(s.Metrics()) {
			t.Errorf("/metrics does not list %s at 0", name)
		}
	}
}

// TestValidArtifactName rejects traversal and junk names.
func TestValidArtifactName(t *testing.T) {
	for _, ok := range []string{"summary.json", "table1.csv", "metrics.txt", "a-b_c.1"} {
		if !ValidArtifactName(ok) {
			t.Errorf("ValidArtifactName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", ".", "..", "../x", "a/b", ".hidden", "-flag", strings.Repeat("x", 200)} {
		if ValidArtifactName(bad) {
			t.Errorf("ValidArtifactName(%q) = true, want false", bad)
		}
	}
}

// TestSubmitValidation: malformed requests are rejected at admission,
// not at execution.
func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	for _, req := range []*Request{
		{Kind: "nope"},
		{Kind: KindRun}, // no app
		{Kind: KindRun, App: "no_such_app"},
		{Kind: KindRun, App: "dense_mmm", Mode: "fiber"},
		{Kind: KindRun, App: "dense_mmm", Size: "huge"},
		{Kind: KindRun, App: "dense_mmm", RingPolicy: "nope"},
		{Kind: KindRun, App: "dense_mmm", FaultPeriod: 1, FaultKinds: []string{"nope"}},
		{Kind: KindSweep, Exp: "fig9"},
		{Kind: KindSweep, Seqs: 1},
		{Kind: KindSweep, Apps: []string{"no_such_app"}},
	} {
		if _, err := s.Submit(req, true); err == nil {
			t.Errorf("Submit(%+v) accepted an invalid request", req)
		}
	}
}

// TestHTTPRejectsRemovedKnobs: the data-window and superblock ablation
// fields, the legacy-loop switch and the priority lane are gone from the
// request model; the strict HTTP decoder must refuse a body that still
// carries one, naming the field, rather than silently ignoring it.
func TestHTTPRejectsRemovedKnobs(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, field := range []string{"no_data_window", "no_superblock", "legacy_loop", "priority"} {
		body := fmt.Sprintf(`{"kind":"run","app":"dense_mmm","size":"test","topology":[3],%q:true}`, field)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.String(), field) {
			t.Fatalf("%s: status %d body %s, want 400 naming the field", field, resp.StatusCode, msg.String())
		}
	}
}
