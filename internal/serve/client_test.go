package serve

import (
	"testing"
	"time"
)

// TestBackoffEnvelope: the one backoff the server's leases and the
// client's requests share doubles from base, stops at the cap, and draws
// each delay uniformly from [d/2, 3d/2).
func TestBackoffEnvelope(t *testing.T) {
	const base, limit = 100 * time.Millisecond, 5 * time.Second
	for attempt := 1; attempt <= 12; attempt++ {
		d := min(base<<(attempt-1), limit)
		for range 200 {
			if got := backoff(base, limit, attempt); got < d/2 || got >= d/2+d {
				t.Fatalf("attempt %d delay %v outside [%v, %v)", attempt, got, d/2, d/2+d)
			}
		}
	}
	// An attempt count far past the cap must not overflow the doubling.
	if got := backoff(base, limit, 1000); got < limit/2 || got >= limit/2+limit {
		t.Fatalf("attempt 1000 delay %v outside [%v, %v)", got, limit/2, limit/2+limit)
	}
}

// TestRetryDelayHonorsHint: a server Retry-After hint overrides a
// shorter computed backoff but is capped at 4× the backoff cap so a
// confused server cannot park the client forever.
func TestRetryDelayHonorsHint(t *testing.T) {
	c := &Client{backoffBase: time.Millisecond, backoffMax: 2 * time.Millisecond}
	if d := c.delay(1, time.Second); d != 8*time.Millisecond {
		t.Fatalf("hinted delay = %v, want 8ms (hint capped at 4×Max)", d)
	}
	if d := c.delay(1, 5*time.Millisecond); d != 5*time.Millisecond {
		t.Fatalf("hinted delay = %v, want the 5ms hint", d)
	}
	if d := (&Client{}).delay(1, 0); d < retryBase/2 || d >= retryBase/2+retryBase {
		t.Fatalf("unhinted first delay = %v, want within [%v, %v)", d, retryBase/2, retryBase/2+retryBase)
	}
}
