package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"misp/internal/version"
)

// JobView is a job record snapshot safe to marshal outside the server
// lock.
type JobView struct {
	ID        string    `json:"id"`
	Key       string    `json:"key"`
	Status    JobStatus `json:"status"`
	Cached    bool      `json:"cached"`
	Error     string    `json:"error,omitempty"`
	Result    *Result   `json:"result,omitempty"`
	Artifacts []string  `json:"artifacts,omitempty"`
	WallMS    int64     `json:"wall_ms,omitempty"`
	Request   *Request  `json:"request,omitempty"`

	// Durable-plane fields (zero without a journal).
	Attempts   int    `json:"attempts,omitempty"`
	Checkpoint uint64 `json:"checkpoint_cycle,omitempty"`
	Recovered  bool   `json:"recovered,omitempty"`
	Failure    string `json:"failure_reason,omitempty"`

	// Governance fields. Preempted marks a job currently parked behind a
	// persisted image awaiting its resume lease; Preempts counts how
	// often that has happened.
	Preempted bool `json:"preempted,omitempty"`
	Preempts  int  `json:"preempts,omitempty"`
}

// View snapshots j under the server lock. Artifact names are listed
// only for terminal successful jobs.
func (s *Server) View(j *Job, withRequest bool) JobView {
	s.mu.Lock()
	v := viewLocked(j, withRequest)
	s.mu.Unlock()
	if v.Status == StatusDone {
		if art, ok := s.cache.Get(j.Key); ok {
			v.Artifacts = art.Names()
		}
	}
	return v
}

// viewLocked is View without the artifact names, which come from the
// cache. Called with mu held.
func viewLocked(j *Job, withRequest bool) JobView {
	v := JobView{
		ID:         j.ID,
		Key:        j.Key,
		Status:     j.Status,
		Cached:     j.Cached,
		Error:      j.Err,
		Result:     j.Result,
		WallMS:     j.Wall.Milliseconds(),
		Attempts:   j.Attempt,
		Checkpoint: j.Ckpt,
		Recovered:  j.Recovered,
		Preempted:  j.Preempted,
		Preempts:   j.Preempts,
	}
	if j.Failure != nil {
		v.Failure = j.Failure.Reason
	}
	if withRequest {
		v.Request = j.Req
	}
	return v
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs                       submit (?wait=1 blocks until terminal)
//	GET    /v1/jobs                       list jobs
//	GET    /v1/jobs/{id}                  job status
//	DELETE /v1/jobs/{id}                  cancel
//	GET    /v1/jobs/{id}/artifacts/{name} fetch one artifact
//	GET    /healthz                       liveness + version + queue counts
//	GET    /metrics                       metrics registry dump (plain text)
//
// Admission responses: 429 + Retry-After when the queue is full, 503
// when draining or when the job could not be journaled, 400 on invalid
// requests.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/artifacts/{name}", s.handleArtifact)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /healthz/live", s.handleLive)
	mux.HandleFunc("GET /healthz/ready", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// encodeJSON renders v as every JSON response body is rendered:
// two-space indent and a trailing newline.
func encodeJSON(v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	enc.Encode(v)
	return b.Bytes()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	writeBody(w, status, "application/json", encodeJSON(v))
}

// writeBody sends a whole response body with its Content-Length.
func writeBody(w http.ResponseWriter, status int, contentType string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad request body: %w", err))
		return
	}
	wait := r.URL.Query().Get("wait") == "1"
	j, err := s.Submit(&req, !wait)
	switch {
	case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrPressure):
		// Backpressure: the hint is the estimated queue drain time (never
		// below the 1s floor), so a saturated daemon tells clients the
		// truth about the wait instead of a constant.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.EstimatedRetryAfter())))
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining) || errors.Is(err, ErrNotDurable):
		// This daemon cannot take the job now — it is going away, or its
		// journal cannot make the job durable. Try later, or elsewhere.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.EstimatedRetryAfter())))
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if j.view != nil {
		// A cache hit, with or without wait: the key's terminal hit record,
		// whose view was rendered when the record was made.
		writeBody(w, http.StatusOK, "application/json", j.view)
		return
	}
	if wait {
		// The connection is the lease on the job: if the client goes away
		// and nobody else is waiting, the job is canceled (ReleaseWaiter).
		s.AddWaiter(j)
		defer s.ReleaseWaiter(j)
		select {
		case <-j.Done():
		case <-r.Context().Done():
			writeError(w, statusClientClosedRequest, r.Context().Err())
			return
		}
		writeJSON(w, http.StatusOK, s.View(j, true))
		return
	}
	v, status := s.View(j, true), http.StatusAccepted
	if v.Status.Terminal() {
		status = http.StatusOK
	}
	writeJSON(w, status, v)
}

// statusClientClosedRequest is nginx's 499: the client disconnected
// before the response was ready (nobody reads it, but logs do).
const statusClientClosedRequest = 499

// retryAfterSeconds converts the backpressure hint to whole seconds,
// rounding UP — rounding to nearest would invite clients back before
// the window has passed — and clamping to at least 1s, since
// "Retry-After: 0" tells a client there is no backpressure at all.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, s.View(j, false))
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", r.PathValue("id")))
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-j.Done():
		case <-r.Context().Done():
			writeError(w, statusClientClosedRequest, r.Context().Err())
			return
		}
	}
	writeJSON(w, http.StatusOK, s.View(j, true))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.Cancel(id, fmt.Errorf("serve: canceled by client: %w", context.Canceled))
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, s.View(j, false))
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	var status JobStatus
	if j != nil {
		status = j.Status
	}
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", id))
		return
	}
	if status != StatusDone {
		writeError(w, http.StatusConflict, fmt.Errorf("serve: job %s is %s, artifacts exist only for done jobs", j.ID, status))
		return
	}
	name := r.PathValue("name")
	data, ok := s.Artifact(j, name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: job %s has no artifact %q", j.ID, name))
		return
	}
	// Content-addressed bytes never change: let clients cache forever,
	// and honor conditional refetches with a body-less 304.
	etag := `"` + j.Key + `-` + name + `"`
	w.Header().Set("ETag", etag)
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeBody(w, http.StatusOK, contentType(name), data)
}

// etagMatch implements the If-None-Match comparison (RFC 9110 §13.1.2):
// a comma-separated list of entity tags, compared weakly (a W/ prefix
// on either side is ignored), with "*" matching any representation.
func etagMatch(header, etag string) bool {
	if header == "" {
		return false // no conditional fetch: skip the split
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == "*" || cand == etag {
			return cand != ""
		}
	}
	return false
}

func contentType(name string) string {
	switch {
	case strings.HasSuffix(name, ".json"):
		return "application/json"
	case strings.HasSuffix(name, ".csv"):
		return "text/csv; charset=utf-8"
	default:
		return "text/plain; charset=utf-8"
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	queued, running, done, failed, canceled := s.Counts()
	s.mu.Lock()
	hits, misses := s.reg.CounterValue("serve.cache.hits"), s.reg.CounterValue("serve.cache.misses")
	s.mu.Unlock()
	status := "ok"
	code := http.StatusOK
	if s.Draining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	body := map[string]any{
		"status":  status,
		"version": version.Get(),
		"uptime":  time.Since(s.start).Round(time.Second).String(),
		"jobs": map[string]int{
			"queued": queued, "running": running, "done": done,
			"failed": failed, "canceled": canceled,
		},
		"cache": map[string]uint64{
			"entries": uint64(s.cache.Len()), "hits": hits, "misses": misses,
		},
	}
	if s.governed() {
		body["pressure"] = map[string]any{
			"level":        s.level().String(),
			"budget_bytes": s.cfg.MemBudget,
			"held":         s.queue.held(),
		}
	}
	writeJSON(w, code, body)
}

// handleLive is the liveness probe: the process is up and serving HTTP.
// Always 200 — a draining or shedding daemon is still alive and must
// not be restarted out from under its backlog.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "live"})
}

// handleReady is the readiness probe: 200 only while the daemon is
// accepting new work. Draining and pressure at or above the shed
// watermark (where every fresh admission sheds) report 503 so load
// balancers steer traffic elsewhere without killing the instance.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	ready := !s.Draining() && s.level() == pressureNominal
	status, code := "ready", http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
		if s.Draining() {
			status = "draining"
		} else {
			status = s.level().String()
		}
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.EstimatedRetryAfter())))
	}
	writeJSON(w, code, map[string]string{"status": status})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.Metrics())
}
