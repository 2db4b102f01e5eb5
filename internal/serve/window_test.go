package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"misp/internal/fault"
)

// keyed is a test-size dense_mmm run with key i: requests differing only
// in SignalCost have distinct keys, and an exec stub can read i back.
func keyed(i int) *Request {
	sc := uint64(i)
	return &Request{Kind: KindRun, App: "dense_mmm", Size: "test", SignalCost: &sc}
}

// TestClientCancelSettlesCanceled: a client's DELETE and a synchronous
// client's disconnect are cancellations wherever they find the job — queued
// behind a busy worker or in a retry backoff, not only mid-lease — so the
// job settles canceled and counts in serve.jobs.canceled, never failed.
func TestClientCancelSettlesCanceled(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxRetries: 3, retryBackoff: time.Hour})
	leases := make(chan int, 8)
	block := make(chan struct{})
	s.exec = func(ctx context.Context, j *Job) (Artifacts, *Result, error) {
		leases <- int(*j.Req.SignalCost)
		if *j.Req.SignalCost == 2 {
			return nil, nil, errors.New("test: transient") // retried after an hour's backoff
		}
		select {
		case <-block:
		case <-ctx.Done():
			return nil, nil, context.Cause(ctx)
		}
		return Artifacts{"summary.json": []byte("{}")}, &Result{ChecksumOK: true}, nil
	}
	h := s.Handler()

	// The worker sits in job 2's retry backoff, so jobs 3 and 4 queue.
	backoff, err := s.Submit(keyed(2), true)
	if err != nil {
		t.Fatal(err)
	}
	if got := <-leases; got != 2 {
		t.Fatalf("first lease ran key %d, want 2", got)
	}
	queued, err := s.Submit(keyed(3), true)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(keyed(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, disconnect := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	answered := make(chan int)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		answered <- rec.Code
	}()
	var waiting *Job
	key := mustCanonical(t, keyed(4)).Key()
	waitCond(t, func() bool {
		for _, j := range s.Jobs() {
			s.mu.Lock()
			if j.Key == key && j.refs == 1 {
				waiting = j
			}
			s.mu.Unlock()
		}
		return waiting != nil
	}, "the ?wait=1 submission never registered its waiter")

	if rec := serveOne(t, h, http.MethodDelete, "/v1/jobs/"+queued.ID, nil); rec.Code != http.StatusOK {
		t.Fatalf("DELETE queued job: %d %s", rec.Code, rec.Body)
	}
	disconnect()
	if code := <-answered; code != statusClientClosedRequest {
		t.Fatalf("disconnected submission answered %d, want %d", code, statusClientClosedRequest)
	}
	if rec := serveOne(t, h, http.MethodDelete, "/v1/jobs/"+backoff.ID, nil); rec.Code != http.StatusOK {
		t.Fatalf("DELETE job in backoff: %d %s", rec.Code, rec.Body)
	}
	for _, j := range []*Job{backoff, queued, waiting} {
		waitJob(t, j)
		if v := s.View(j, false); v.Status != StatusCanceled {
			t.Errorf("job %s (key %d) settled %s (%q), want canceled", j.ID, *j.Req.SignalCost, v.Status, v.Error)
		}
	}
	if n := len(leases); n != 0 {
		t.Errorf("canceled queued jobs took %d leases, want none", n)
	}
	s.mu.Lock()
	failed, canceled := s.reg.CounterValue("serve.jobs.failed"), s.reg.CounterValue("serve.jobs.canceled")
	s.mu.Unlock()
	if failed != 0 || canceled != 3 {
		t.Fatalf("serve.jobs.failed = %d, serve.jobs.canceled = %d; want 0 and 3", failed, canceled)
	}
	close(block)
}

// TestFailureWindowBoundsLiveTable: the live job table keeps what a
// restart keeps. keptFailures+k jobs settle failed (the cycle limit) or
// canceled (a client's DELETE), and the first one submitted settles last,
// so settle order is not submission order. Jobs() and /healthz list
// exactly the newest keptFailures by settle order; every evicted ID
// answers 404 to GET, DELETE and the artifact route; the counters still
// count every verdict.
func TestFailureWindowBoundsLiveTable(t *testing.T) {
	const k = 9
	s := newTestServer(t, Config{Workers: 2})
	running := make(chan int, 1)
	s.exec = func(ctx context.Context, j *Job) (Artifacts, *Result, error) {
		i := int(*j.Req.SignalCost)
		if i%3 == 1 {
			return nil, nil, &fault.Diagnosis{Reason: fault.ReasonCycleLimit}
		}
		running <- i
		<-ctx.Done() // held until its DELETE
		return nil, nil, context.Cause(ctx)
	}
	h := s.Handler()
	cancel := func(j *Job) {
		t.Helper()
		if rec := serveOne(t, h, http.MethodDelete, "/v1/jobs/"+j.ID, nil); rec.Code != http.StatusOK {
			t.Fatalf("DELETE %s: %d %s", j.ID, rec.Code, rec.Body)
		}
		waitJob(t, j)
	}

	// Job 0 holds one worker until the end; the rest run one at a time on
	// the other, each settled before the next is submitted.
	first, err := s.Submit(keyed(0), true)
	if err != nil {
		t.Fatal(err)
	}
	<-running
	var settled []*Job
	failed, canceled := 0, 1
	for i := 1; i < keptFailures+k; i++ {
		j, err := s.Submit(keyed(i), true)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 1 {
			waitJob(t, j)
			failed++
		} else {
			<-running
			cancel(j)
			canceled++
		}
		settled = append(settled, j)
	}
	cancel(first)
	settled = append(settled, first)

	kept, evicted := settled[k:], settled[:k]
	var want []string
	for _, j := range kept {
		want = append(want, j.ID)
	}
	var got []string
	for _, j := range s.Jobs() {
		got = append(got, j.ID)
	}
	slices.Sort(want)
	if slices.Sort(got); !slices.Equal(got, want) {
		t.Fatalf("Jobs() lists %d jobs %v, want the newest %d settled %v", len(got), got, keptFailures, want)
	}
	if jobs := s.Jobs(); jobs[0] != first {
		t.Fatalf("Jobs() starts with %s, want the first submitted, %s", jobs[0].ID, first.ID)
	}

	rec := serveOne(t, h, http.MethodGet, "/healthz", nil)
	var health struct {
		Jobs map[string]int `json:"jobs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	keptFailed := 0
	for _, j := range kept {
		if j.Status == StatusFailed {
			keptFailed++
		}
	}
	if health.Jobs["failed"] != keptFailed || health.Jobs["canceled"] != keptFailures-keptFailed {
		t.Fatalf("/healthz jobs %v, want %d failed and %d canceled", health.Jobs, keptFailed, keptFailures-keptFailed)
	}

	for _, j := range evicted {
		for _, r := range []struct{ method, target string }{
			{http.MethodGet, "/v1/jobs/" + j.ID},
			{http.MethodDelete, "/v1/jobs/" + j.ID},
			{http.MethodGet, "/v1/jobs/" + j.ID + "/artifacts/summary.json"},
		} {
			if rec := serveOne(t, h, r.method, r.target, nil); rec.Code != http.StatusNotFound {
				t.Errorf("%s %s of an evicted job: %d, want 404", r.method, r.target, rec.Code)
			}
		}
	}
	if rec := serveOne(t, h, http.MethodGet, "/v1/jobs/"+kept[0].ID, nil); rec.Code != http.StatusOK {
		t.Errorf("GET the oldest kept job %s: %d, want 200", kept[0].ID, rec.Code)
	}

	s.mu.Lock()
	nf, nc := s.reg.CounterValue("serve.jobs.failed"), s.reg.CounterValue("serve.jobs.canceled")
	s.mu.Unlock()
	if nf != uint64(failed) || nc != uint64(canceled) {
		t.Fatalf("serve.jobs.failed = %d, serve.jobs.canceled = %d; want %d and %d", nf, nc, failed, canceled)
	}
}
