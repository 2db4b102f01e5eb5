package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// The client's retry backoff: the first delay, and the cap on any one.
const (
	retryBase = 200 * time.Millisecond
	retryMax  = 5 * time.Second
)

// Client is a minimal HTTP client for a running mispserve daemon. It
// exists so the CLI and tests speak the same wire format as any other
// consumer; there is no hidden side channel into the server.
//
// With MaxAttempts above one, transient failures — connection errors,
// 429 (queue full) and 503 (draining) responses — are retried with
// jittered exponential backoff, honoring the server's Retry-After
// header; the final error reports how many attempts were burned.
type Client struct {
	// MaxAttempts is the total number of tries per call, the first
	// included; values <= 1 (the zero value) mean a single attempt.
	MaxAttempts int

	base string
	http *http.Client

	// Test seams, like Config.retryBackoff: the backoff's first delay and
	// cap, retryBase and retryMax when zero.
	backoffBase, backoffMax time.Duration
}

// NewClient builds a client for the daemon at base (e.g.
// "http://127.0.0.1:8077").
func NewClient(base string) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		http: &http.Client{Timeout: 10 * time.Minute},
	}
}

// delay is the wait before try attempt+1: the jittered backoff, or the
// server's Retry-After hint when that is longer — capped at 4× the
// backoff cap, so a hostile or confused server cannot park the client
// forever.
func (c *Client) delay(attempt int, hint time.Duration) time.Duration {
	limit := cmp.Or(c.backoffMax, retryMax)
	return max(backoff(cmp.Or(c.backoffBase, retryBase), limit, attempt), min(hint, 4*limit))
}

// Submit posts req. With wait it blocks until the job is terminal and
// returns the final view; otherwise it returns the accepted snapshot.
func (c *Client) Submit(ctx context.Context, req *Request, wait bool) (*JobView, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	u := c.base + "/v1/jobs"
	if wait {
		u += "?wait=1"
	}
	return c.jobView(ctx, func() (*http.Request, error) {
		hr, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		hr.Header.Set("Content-Type", "application/json")
		return hr, nil
	})
}

// Status fetches one job's view; wait blocks until terminal.
func (c *Client) Status(ctx context.Context, id string, wait bool) (*JobView, error) {
	u := c.base + "/v1/jobs/" + url.PathEscape(id)
	if wait {
		u += "?wait=1"
	}
	return c.jobView(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	})
}

// List returns every job the daemon knows about.
func (c *Client) List(ctx context.Context) ([]JobView, error) {
	resp, err := c.do(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs", nil)
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	var out struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// Artifact fetches one artifact's bytes.
func (c *Client) Artifact(ctx context.Context, id, name string) ([]byte, error) {
	u := c.base + "/v1/jobs/" + url.PathEscape(id) + "/artifacts/" + url.PathEscape(name)
	resp, err := c.do(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	return io.ReadAll(resp.Body)
}

// Cancel asks the daemon to cancel a job. Cancellation is not retried:
// it is not idempotent from the caller's intent (a retried cancel could
// land on a job resubmitted in between).
func (c *Client) Cancel(ctx context.Context, id string) (*JobView, error) {
	u := c.base + "/v1/jobs/" + url.PathEscape(id)
	hr, err := http.NewRequestWithContext(ctx, http.MethodDelete, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(hr)
	if err != nil {
		return nil, err
	}
	return decodeJobView(resp)
}

// do issues one logical request through the retry loop. build runs per
// attempt so each try gets a fresh body reader. Only transport errors
// and backpressure statuses (429, 503) retry; every other response is
// returned to the caller, body open.
func (c *Client) do(ctx context.Context, build func() (*http.Request, error)) (*http.Response, error) {
	attempts := max(c.MaxAttempts, 1)
	var lastErr error
	for attempt := 1; ; attempt++ {
		hr, err := build()
		if err != nil {
			return nil, err
		}
		resp, err := c.http.Do(hr)
		var retryAfter time.Duration
		switch {
		case err == nil && resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable:
			return resp, nil
		case err == nil:
			// Backpressure: drain and close so the connection is reusable,
			// keep the hint, and fall through to the backoff.
			retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
			lastErr = apiError(resp)
			resp.Body.Close()
		case ctx.Err() != nil:
			// The caller gave up; that outranks any retry budget.
			return nil, ctx.Err()
		default:
			lastErr = err // transient transport error (connect refused, reset…)
		}
		if attempt >= attempts {
			if attempts > 1 {
				return nil, fmt.Errorf("serve: giving up after %d attempts: %w", attempt, lastErr)
			}
			return nil, lastErr
		}
		if !sleep(ctx, c.delay(attempt, retryAfter)) {
			return nil, ctx.Err()
		}
	}
}

// parseRetryAfter reads the delay-seconds form of Retry-After ("" or
// unparsable — including the HTTP-date form — means no hint).
func parseRetryAfter(h string) time.Duration {
	if secs, err := strconv.Atoi(strings.TrimSpace(h)); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}

func (c *Client) jobView(ctx context.Context, build func() (*http.Request, error)) (*JobView, error) {
	resp, err := c.do(ctx, build)
	if err != nil {
		return nil, err
	}
	return decodeJobView(resp)
}

func decodeJobView(resp *http.Response) (*JobView, error) {
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
	default:
		return nil, apiError(resp)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, err
	}
	return &v, nil
}

func apiError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var body struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &body) == nil && body.Error != "" {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			return fmt.Errorf("%s (HTTP %d, Retry-After %ss)", body.Error, resp.StatusCode, ra)
		}
		return fmt.Errorf("%s (HTTP %d)", body.Error, resp.StatusCode)
	}
	return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
}
