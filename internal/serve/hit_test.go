package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// serveOne sends one request straight to h, with no network and no
// request parsing in between, and returns the recorded response.
func serveOne(t testing.TB, h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, target, rd)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// populated returns a server whose cache holds tinyRun's result, its
// handler, and the request body.
func populated(t testing.TB) (*Server, http.Handler, []byte) {
	t.Helper()
	s, err := NewServer(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Drain(t.Context()) })
	body, err := json.Marshal(tinyRun())
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if rec := serveOne(t, h, http.MethodPost, "/v1/jobs?wait=1", body); rec.Code != http.StatusOK {
		t.Fatalf("populating run: %d %s", rec.Code, rec.Body)
	}
	return s, h, body
}

// TestHitsDoNotGrowJobTable: a thousand hits of one key, half with
// wait=1 and half without, add one record to the job table — the key's
// hit record — and every one of them answers with the same bytes, sent
// with their length, equal to that record's GET /v1/jobs/{id} body. The
// counters still count every hit as a submitted, completed job.
func TestHitsDoNotGrowJobTable(t *testing.T) {
	s, h, body := populated(t)
	s.mu.Lock()
	before := len(s.jobs)
	s.mu.Unlock()

	var first []byte
	for i := range 1000 {
		target := "/v1/jobs"
		if i%2 == 0 {
			target += "?wait=1"
		}
		rec := serveOne(t, h, http.MethodPost, target, body)
		b := rec.Body.Bytes()
		if rec.Code != http.StatusOK {
			t.Fatalf("hit %d: status %d, want 200: %s", i, rec.Code, b)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(b)) {
			t.Fatalf("hit %d: Content-Length %q for a %d-byte body", i, cl, len(b))
		}
		if first == nil {
			first = b
		} else if !bytes.Equal(b, first) {
			t.Fatalf("hit %d answered\n%s\nthe first hit answered\n%s", i, b, first)
		}
	}

	listed := len(s.Jobs())
	s.mu.Lock()
	grew := len(s.jobs) - before
	hits := s.reg.CounterValue("serve.cache.hits")
	submitted := s.reg.CounterValue("serve.jobs.submitted")
	completed := s.reg.CounterValue("serve.jobs.completed")
	s.mu.Unlock()
	if grew > 1 || listed != before+grew {
		t.Fatalf("1000 hits grew the job table by %d and the listing to %d records, want at most one more than %d", grew, listed, before)
	}
	if hits != 1000 || submitted != 1001 || completed != 1001 {
		t.Fatalf("counters: %d hits, %d submitted, %d completed; want 1000, 1001, 1001", hits, submitted, completed)
	}

	var v JobView
	if err := json.Unmarshal(first, &v); err != nil {
		t.Fatal(err)
	}
	if !v.Cached || v.Status != StatusDone || len(v.Artifacts) == 0 || v.Request == nil {
		t.Fatalf("hit view %+v, want a cached done job listing its artifacts and request", v)
	}
	if rec := serveOne(t, h, http.MethodGet, "/v1/jobs/"+v.ID, nil); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), first) {
		t.Fatalf("GET /v1/jobs/%s: %d\n%s\nthe hits answered\n%s", v.ID, rec.Code, rec.Body, first)
	}
	for _, name := range v.Artifacts {
		if rec := serveOne(t, h, http.MethodGet, "/v1/jobs/"+v.ID+"/artifacts/"+name, nil); rec.Code != http.StatusOK {
			t.Errorf("artifact %s of the hit record: status %d", name, rec.Code)
		}
	}
	for _, bad := range []string{".summary.json", "nope.txt", "summary.json%2F", "..%2Fsummary.json"} {
		if rec := serveOne(t, h, http.MethodGet, "/v1/jobs/"+v.ID+"/artifacts/"+bad, nil); rec.Code != http.StatusNotFound {
			t.Errorf("artifact %q: status %d, want 404", bad, rec.Code)
		}
	}
}

// hitAllocs is the allocation count of one served hit (below); lower
// it when the count drops, and say why when it has to rise.
const hitAllocs = 93

// TestServedHitAllocs holds one served hit — a POST ?wait=1 of a
// populated key and a GET of every artifact its view lists, through
// Handler() — to exactly hitAllocs allocations.
func TestServedHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	_, h, body := populated(t)
	urls := warmHit(t, h, body)
	got := testing.AllocsPerRun(50, func() {
		serveOne(t, h, http.MethodPost, "/v1/jobs?wait=1", body)
		for _, u := range urls {
			serveOne(t, h, http.MethodGet, u, nil)
		}
	})
	if got != hitAllocs {
		t.Fatalf("a served hit made %v allocations, want %d", got, hitAllocs)
	}
}

// warmHit serves the first hit of populated's key and returns the URLs of
// the artifacts its view lists.
func warmHit(tb testing.TB, h http.Handler, body []byte) []string {
	tb.Helper()
	rec := serveOne(tb, h, http.MethodPost, "/v1/jobs?wait=1", body)
	var v JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil || !v.Cached {
		tb.Fatalf("warm-up hit: %v, %s", err, rec.Body)
	}
	urls := make([]string, len(v.Artifacts))
	for i, name := range v.Artifacts {
		urls[i] = "/v1/jobs/" + v.ID + "/artifacts/" + name
	}
	return urls
}

// BenchmarkServeHit is the cache-read layer of a served hit: one POST
// ?wait=1 of a populated key and a GET of every artifact its view lists,
// through Handler() with no network in between.
func BenchmarkServeHit(b *testing.B) {
	_, h, body := populated(b)
	urls := warmHit(b, h, body)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if rec := serveOne(b, h, http.MethodPost, "/v1/jobs?wait=1", body); rec.Code != http.StatusOK {
			b.Fatalf("hit: status %d", rec.Code)
		}
		for _, u := range urls {
			if rec := serveOne(b, h, http.MethodGet, u, nil); rec.Code != http.StatusOK {
				b.Fatalf("%s: status %d", u, rec.Code)
			}
		}
	}
}
