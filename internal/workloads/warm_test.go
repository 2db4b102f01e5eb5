package workloads

import (
	"sync"
	"testing"

	"misp/internal/core"
	"misp/internal/shredlib"
)

// TestWarmPoolParity checks the warm-start contract end to end: a
// pooled prepare (cold miss) and a pooled fork (hit) must both produce
// results identical to a plain cold prepare — including across run-only
// config variation within one pool key.
func TestWarmPoolParity(t *testing.T) {
	w, err := ByName("gauss")
	if err != nil {
		t.Fatal(err)
	}
	base := testConfig(core.Topology{3})

	cold, err := Run(w, shredlib.ModeShred, base, SizeTest)
	if err != nil {
		t.Fatal(err)
	}

	pool := NewWarmPool()
	for i := 0; i < 2; i++ { // i=0 is the cold miss, i=1 the warm hit
		pr, err := pool.Prepare(w, shredlib.ModeShred, base, SizeTest, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pr.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Checksum != cold.Checksum || res.Cycles != cold.Cycles {
			t.Fatalf("pool run %d diverged: (%g, %d cy) vs cold (%g, %d cy)",
				i, res.Checksum, res.Cycles, cold.Checksum, cold.Cycles)
		}
	}
	if hits, misses := pool.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("pool stats = %d hits / %d misses, want 1/1", hits, misses)
	}

	// A run-only variation shares the key but must match its own cold run.
	vari := base
	vari.WatchdogHorizon = 50_000_000
	vari.RingPolicy = core.RingMonitorCR
	coldVar, err := Run(w, shredlib.ModeShred, vari, SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := pool.Prepare(w, shredlib.ModeShred, vari, SizeTest, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Checksum != coldVar.Checksum || res.Cycles != coldVar.Cycles {
		t.Fatalf("run-only variant diverged: (%g, %d cy) vs cold (%g, %d cy)",
			res.Checksum, res.Cycles, coldVar.Checksum, coldVar.Cycles)
	}
	if hits, _ := pool.Stats(); hits != 2 {
		t.Fatalf("run-only variant missed the pool (hits = %d)", hits)
	}

	// A prepare-affecting variation (different SignalCost) must NOT share.
	sig := base
	sig.SignalCost = 500
	if _, err := pool.Prepare(w, shredlib.ModeShred, sig, SizeTest, 0); err != nil {
		t.Fatal(err)
	}
	if _, misses := pool.Stats(); misses != 2 {
		t.Fatalf("SignalCost variant shared a key (misses = %d, want 2)", misses)
	}
}

// TestWarmPoolConcurrent hammers one key from many goroutines: exactly
// one cold prepare happens (single-flight) and every run agrees.
func TestWarmPoolConcurrent(t *testing.T) {
	w, err := ByName("dense_mvm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(core.Topology{3})
	pool := NewWarmPool()

	const n = 8
	results := make([]*RunResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pr, err := pool.Prepare(w, shredlib.ModeShred, cfg, SizeTest, 0)
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = pr.Run()
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if results[i].Checksum != results[0].Checksum || results[i].Cycles != results[0].Cycles {
			t.Fatalf("worker %d diverged from worker 0", i)
		}
	}
	if _, misses := pool.Stats(); misses != 1 {
		t.Fatalf("single-flight violated: %d cold prepares for one key", misses)
	}
}
