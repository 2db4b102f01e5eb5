package workloads

import (
	"fmt"
	"sync"

	"misp/internal/core"
	"misp/internal/kernel"
	"misp/internal/shredlib"
	"misp/internal/snap"
)

// WarmPool caches post-Prepare snapshots so grid sweeps and the serve
// plane skip redundant machine construction: building a machine boots
// a kernel, generates the program and spawns it — identical work for
// every grid point that varies only run-time parameters.
//
// The pool key covers everything that shapes the prepared state: the
// workload identity (name, mode, size, rt_init flags) and the
// prepare-affecting configuration (core.Config.Structural). Everything
// else — the ring policy, limits, and the fault plane — is run-only
// and is applied as a fork-time override, so a forked machine is
// bit-identical to a cold-prepared one with the same full configuration
// (difftested in warm_test.go).
//
// Misses are per-key single-flight: the first caller prepares cold and
// captures; concurrent callers for the same key wait for that capture
// and fork from it.
type WarmPool struct {
	mu      sync.Mutex
	entries map[string]*poolEntry
	hits    uint64
	misses  uint64
}

type poolEntry struct {
	ready chan struct{} // closed once snap/err are final
	snap  *snap.Snapshot
	err   error
}

// NewWarmPool creates an empty pool.
func NewWarmPool() *WarmPool {
	return &WarmPool{entries: make(map[string]*poolEntry)}
}

// warmKey identifies one prepared state. Config fields not in the key
// are run-only overrides by construction (see core.Config.Structural).
func warmKey(w *Workload, mode shredlib.Mode, sz Size, extra int64, cfg core.Config) string {
	return fmt.Sprintf("%s|%d|%d|%d|%s", w.Name, mode, sz, extra, cfg.Structural())
}

// Prepare is PrepareFlags through the pool: a cold miss prepares,
// captures, and returns the cold machine itself (capture is read-only);
// a hit forks the cached snapshot with cfg's run-only fields applied.
// A pool with a nil receiver degrades to plain PrepareFlags.
func (wp *WarmPool) Prepare(w *Workload, mode shredlib.Mode, cfg core.Config, sz Size, extra int64) (*Prepared, error) {
	if wp == nil {
		return PrepareFlags(w, mode, cfg, sz, extra)
	}
	key := warmKey(w, mode, sz, extra, cfg)
	wp.mu.Lock()
	e := wp.entries[key]
	if e == nil {
		e = &poolEntry{ready: make(chan struct{})}
		wp.entries[key] = e
		wp.misses++
		wp.mu.Unlock()
		pr, err := PrepareFlags(w, mode, cfg, sz, extra)
		if err != nil {
			e.err = err
			close(e.ready)
			return nil, err
		}
		e.snap, e.err = snap.Capture(pr.Machine, pr.Kernel)
		close(e.ready)
		// Even if the capture failed, the cold Prepared is good.
		return pr, nil
	}
	wp.hits++
	wp.mu.Unlock()
	<-e.ready
	if e.err != nil {
		// The snapshot never materialized (prepare or capture failure);
		// fall back to a cold prepare so one bad capture cannot poison
		// every later run of the key.
		return PrepareFlags(w, mode, cfg, sz, extra)
	}
	m, k, err := e.snap.Fork(func(c *core.Config) { *c = cfg })
	if err != nil {
		return nil, fmt.Errorf("workloads: warm fork %s: %w", w.Name, err)
	}
	return Resume(w, mode, m, k)
}

// Stats returns the pool's hit/miss counts.
func (wp *WarmPool) Stats() (hits, misses uint64) {
	wp.mu.Lock()
	defer wp.mu.Unlock()
	return wp.hits, wp.misses
}

// Resume wraps an already-populated machine+kernel pair (a snapshot
// fork, or a mispsim -restore) as a Prepared ready to Run. The spawned
// workload process is located by smallest PID.
func Resume(w *Workload, mode shredlib.Mode, m *core.Machine, k *kernel.Kernel) (*Prepared, error) {
	var p *kernel.Process
	for _, cand := range k.Procs {
		if p == nil || cand.PID < p.PID {
			p = cand
		}
	}
	if p == nil {
		return nil, fmt.Errorf("workloads: restored kernel has no process")
	}
	return &Prepared{W: w, Mode: mode, Cfg: m.Cfg, Machine: m, Kernel: k, Proc: p}, nil
}
