package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// diskArt is a minimal artifact set for cache-layer tests.
func diskArt(tag string) Artifacts {
	return Artifacts{"summary.json": []byte(`{"tag":"` + tag + `"}` + "\n")}
}

// TestCacheLoadOutsideLock: a slow disk load of one key must not stall
// in-memory lookups of other keys. The regression this guards: lookups
// used to call the disk loader while holding the cache mutex, so
// one cold disk read serialized every cache operation in the daemon.
func TestCacheLoadOutsideLock(t *testing.T) {
	dir := t.TempDir()
	seed, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Put("diskkey0-0000", diskArt("disk")); err != nil {
		t.Fatal(err)
	}

	// A fresh cache over the same directory: the entry is on disk only.
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("memkey00-0000", diskArt("mem")); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	c.loadDelay = func(key string) {
		close(entered)
		<-release // the "slow disk"
	}

	type res struct {
		art Artifacts
		ok  bool
	}
	diskDone := make(chan res, 1)
	go func() {
		art, ok := c.Get("diskkey0-0000")
		diskDone <- res{art, ok}
	}()
	<-entered // the disk load is in flight and holding no lock...

	memDone := make(chan res, 1)
	go func() {
		art, ok := c.Get("memkey00-0000")
		memDone <- res{art, ok}
	}()
	select {
	case r := <-memDone: // ...so the memory hit must come straight back
		if !r.ok {
			t.Fatal("memory-resident key missing")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-memory lookup blocked behind a slow disk load")
	}

	close(release)
	if r := <-diskDone; !r.ok || string(r.art["summary.json"]) != string(diskArt("disk")["summary.json"]) {
		t.Fatalf("disk load returned ok=%v art=%q", r.ok, r.art["summary.json"])
	}
	// The loaded entry is promoted to the memory layer exactly once.
	if _, ok := c.mem["diskkey0-0000"]; !ok {
		t.Fatal("disk entry not promoted to the memory layer")
	}
}

// TestSubmitLoadsDiskEntryOutsideServerLock: the first request for a
// key that lives only in the disk cache reads and verifies it before
// taking the server mutex. The regression this guards: admitLocked called
// Cache.Get with Server.mu held, so one cold disk read in a restarted
// daemon stalled every View, /metrics, settle and Submit behind it. The
// hit/miss accounting stays where the admission order puts it.
func TestSubmitLoadsDiskEntryOutsideServerLock(t *testing.T) {
	dir := t.TempDir()
	cold := mustCanonical(t, tinyRun())
	seed, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Put(cold.Key(), diskArt("cold")); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	s.exec = func(ctx context.Context, j *Job) (Artifacts, *Result, error) {
		return diskArt("ran"), &Result{ChecksumOK: true}, nil
	}
	other := &Request{Kind: KindRun, App: "dense_mmm", Size: "test", Topology: []int{2}}
	oj, err := s.Submit(other, true) // an unrelated job: one miss, then resident
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, oj)

	entered, gate := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // a failing run must still let the server drain
	s.cache.loadDelay = func(key string) {
		if key == cold.Key() {
			close(entered)
			<-gate // the "slow disk"
		}
	}
	coldDone := make(chan *Job, 1)
	go func() {
		j, err := s.Submit(tinyRun(), true)
		if err != nil {
			t.Error(err)
		}
		coldDone <- j
	}()
	<-entered // the cold load is in flight...

	prompt := make(chan *Job, 1)
	go func() {
		s.View(oj, false)
		j, err := s.Submit(other, true) // memory-resident: a plain cache hit
		if err != nil {
			t.Error(err)
		}
		prompt <- j
	}()
	select {
	case j := <-prompt: // ...and must hold no lock the rest of the server needs
		if j == nil || !s.View(j, false).Cached {
			t.Fatal("memory-resident resubmission was not served from the cache")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("View/Submit blocked behind another submission's disk load")
	}

	release()
	if j := <-coldDone; j == nil || !s.View(j, false).Cached {
		t.Fatal("disk-resident key was not served from the cache")
	}
	s.mu.Lock()
	hits, misses := s.reg.CounterValue("serve.cache.hits"), s.reg.CounterValue("serve.cache.misses")
	s.mu.Unlock()
	if hits != 2 || misses != 1 {
		t.Fatalf("cache counts = %d hits / %d misses, want 2/1 (the prefetch counts nothing)", hits, misses)
	}
}

// TestCacheLoadSingleFlight: a thundering herd on one cold key does one
// disk read, and every caller gets the result.
func TestCacheLoadSingleFlight(t *testing.T) {
	dir := t.TempDir()
	seed, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Put("herdkey0-0000", diskArt("herd")); err != nil {
		t.Fatal(err)
	}
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}

	var loads atomic.Int32
	release := make(chan struct{})
	c.loadDelay = func(key string) {
		loads.Add(1)
		<-release
	}

	const n = 8
	var wg sync.WaitGroup
	oks := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, oks[i] = c.Get("herdkey0-0000")
		}(i)
	}
	// Let the herd pile up behind the single flight, then open the disk.
	for {
		c.mu.Lock()
		waiting := c.loads["herdkey0-0000"] != nil
		c.mu.Unlock()
		if waiting {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := loads.Load(); got != 1 {
		t.Fatalf("cold key loaded %d times, want 1 (single-flight)", got)
	}
	for i, ok := range oks {
		if !ok {
			t.Fatalf("caller %d missed", i)
		}
	}
}

// TestRetryAfterCeiling: the Retry-After hint rounds UP to whole
// seconds and never drops below 1 — a rounded-down hint invites the
// client back inside the backpressure window.
func TestRetryAfterCeiling(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{time.Millisecond, 1},
		{999 * time.Millisecond, 1},
		{time.Second, 1},
		{1001 * time.Millisecond, 2},
		{1400 * time.Millisecond, 2}, // Round() would say 1
		{2 * time.Second, 2},
		{2900 * time.Millisecond, 3},
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

// TestArtifactIfNoneMatch: artifact bytes are content-addressed and
// immutable, so a conditional refetch with the previously returned
// ETag must answer 304 with no body.
func TestArtifactIfNoneMatch(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.exec = func(ctx context.Context, j *Job) (Artifacts, *Result, error) {
		return Artifacts{"summary.json": []byte("{}\n")}, &Result{ChecksumOK: true}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)

	v, err := cl.Submit(context.Background(), tinyRun(), true)
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/jobs/" + v.ID + "/artifacts/summary.json"

	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || len(body) == 0 || etag == "" {
		t.Fatalf("unconditional fetch: %d, %d bytes, ETag=%q", resp.StatusCode, len(body), etag)
	}

	fetch := func(inm string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	for _, match := range []string{etag, "W/" + etag, `"bogus", ` + etag, "*"} {
		resp := fetch(match)
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			t.Fatalf("If-None-Match %q: %d with %d body bytes, want 304 empty", match, resp.StatusCode, len(body))
		}
		if resp.Header.Get("ETag") != etag {
			t.Fatalf("304 dropped the ETag header")
		}
	}
	for _, miss := range []string{`"other"`, ""} {
		resp := fetch(miss)
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "{}") {
			t.Fatalf("If-None-Match %q: %d, want fresh 200", miss, resp.StatusCode)
		}
	}
}

// TestSubmitReadsDiskOncePerMiss: a submission the cache misses reads the
// disk layer once, outside the server lock, and the check under the lock
// asks memory only; a hit of a settled key reads nothing. The regression
// this guards: Submit looked the key up twice per admission, the second
// time under the server mutex.
func TestSubmitReadsDiskOncePerMiss(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CacheDir: t.TempDir()})
	s.exec = func(ctx context.Context, j *Job) (Artifacts, *Result, error) {
		return diskArt("ran"), &Result{ChecksumOK: true}, nil
	}
	var loads atomic.Int32
	s.cache.loadDelay = func(string) { loads.Add(1) }
	const misses = 5
	for i := range misses {
		sc := uint64(i + 1)
		req := &Request{Kind: KindRun, App: "dense_mmm", Size: "test", SignalCost: &sc}
		j, err := s.Submit(req, true)
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		hit, err := s.Submit(req, true)
		if err != nil {
			t.Fatal(err)
		}
		if !s.View(hit, false).Cached {
			t.Fatalf("resubmission %d was not served from the cache", i)
		}
	}
	if got := loads.Load(); got != misses {
		t.Fatalf("%d disk loads for %d missed submissions and as many hits, want %d", got, misses, misses)
	}
}
