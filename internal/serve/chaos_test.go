package serve

import (
	"context"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"misp/internal/journal"
)

// TestChaosSeededKills is the in-process chaos harness: at 24 seeded,
// randomized kill points the server "dies" (journal handle severed,
// base context canceled — the in-process analogue of SIGKILL, leaving
// the on-disk journal, checkpoints, and cache exactly as the crash
// found them) while real simulations are queued and running. After each
// crash a successor boots from the same directories and every journaled
// job must either be listed and reach a terminal state — done with
// artifacts byte-identical to an uninterrupted run, or failed with a
// recorded diagnosis — or have been retired by its done record, with
// its key cached and a resubmission a hit with byte-identical artifacts.
// Never lost, never duplicated: at most one job per request.
//
// The kill offset is drawn from a per-seed RNG, so a failure reproduces
// from its seed; the offsets sweep the interesting window (admission,
// first lease, mid-run between checkpoints, around completion).
func TestChaosSeededKills(t *testing.T) {
	seeds := int64(24)
	if raceEnabled {
		// The race detector slows the simulations ~15x; a handful of
		// seeds keeps `make race` inside the default package timeout
		// while the full sweep runs race-free in `make test` and with
		// real SIGKILLs in `make crashcheck`.
		seeds = 4
	}
	reqs := []*Request{
		tinyRun(),
		{Kind: KindSweep, Apps: []string{"dense_mmm"}, Size: "test", Seqs: 2, Exp: "table1"},
	}
	// Reference artifacts from uninterrupted runs, once.
	want := make(map[string]Artifacts, len(reqs))
	var runCycles uint64
	for _, r := range reqs {
		c := mustCanonical(t, r)
		art, res, err := Execute(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		want[c.Key()] = art
		if c.Kind == KindRun {
			runCycles = res.Cycles
		}
	}

	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(time.Duration(seed).String(), func(t *testing.T) {
			t.Parallel() // seeds are fully isolated (own dirs, own servers)
			rng := rand.New(rand.NewSource(seed))
			jdir, cdir := durableDirs(t)
			cfg := Config{
				Workers: 2, JournalDir: jdir, CacheDir: cdir,
				CheckpointCycles: runCycles / 3,
				// Governance armed but quiescent (heap ≪ budget): the
				// preemption plumbing is live without pressure shedding, so
				// seeds can inject preemptions explicitly.
				MemBudget: 1 << 40,
			}
			s1, err := NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ids := make(map[string]bool, len(reqs))
			idOf := make(map[string]string, len(reqs)) // key → job ID
			for _, r := range reqs {
				j, err := s1.Submit(r, true)
				if err != nil {
					t.Fatal(err)
				}
				ids[j.ID] = true
				idOf[j.Key] = j.ID
			}
			// The seeded kill point: anywhere from "barely admitted" to
			// "probably finished". Even seeds also preempt the youngest
			// running run partway there, so the journal the successor
			// replays can contain preempted records (including the crash
			// landing while a preempted job sits queued behind its image).
			if seed%2 == 0 {
				time.Sleep(time.Duration(rng.Intn(125)) * time.Millisecond)
				s1.preemptVictim()
				time.Sleep(time.Duration(rng.Intn(125)) * time.Millisecond)
			} else {
				time.Sleep(time.Duration(rng.Intn(250)) * time.Millisecond)
			}
			crash(s1)
			// Unlike a SIGKILL, crash leaves s1's goroutines running. Its
			// jobs are canceled, but a worker that had already finished
			// simulating may still be inside its cache write when the
			// successor — now done in milliseconds — has settled everything;
			// wait it out before TempDir cleanup removes the directory
			// under it.
			defer s1.Drain(context.Background())

			// The journal as the crash left it: a job the successor does
			// not list must have been retired by a done record here, not
			// dropped — whatever s1's leftover workers write to the cache.
			jn, payloads, err := journal.Open(filepath.Join(jdir, "journal.wal"))
			if err != nil {
				t.Fatal(err)
			}
			jn.Close()
			retired := make(map[string]bool)
			for _, p := range payloads {
				var r jrec
				if json.Unmarshal(p, &r) == nil && r.Op == opDone {
					retired[r.ID] = true
				}
			}

			s2, err := NewServer(cfg)
			if err != nil {
				t.Fatalf("seed %d: successor failed to boot: %v", seed, err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				s2.Drain(ctx)
			}()

			listed := make(map[string]bool, len(reqs))
			for _, j := range s2.Jobs() {
				if !ids[j.ID] {
					t.Fatalf("seed %d: unknown job %s appeared after recovery", seed, j.ID)
				}
				if listed[j.Key] {
					t.Fatalf("seed %d: request %s listed twice after recovery (duplicated)", seed, j.Key[:8])
				}
				listed[j.Key] = true
				waitJob(t, j)
				switch j.Status {
				case StatusDone:
					art, ok := s2.cache.Get(j.Key)
					if !ok {
						t.Fatalf("seed %d: done job %s has no artifacts", seed, j.ID)
					}
					assertSameArtifacts(t, want[j.Key], art)
				case StatusFailed:
					if j.Err == "" {
						t.Fatalf("seed %d: failed job %s recorded no diagnosis", seed, j.ID)
					}
				default:
					t.Fatalf("seed %d: job %s settled as %s", seed, j.ID, j.Status)
				}
			}
			for _, r := range reqs {
				key := mustCanonical(t, r).Key()
				if listed[key] {
					continue
				}
				if !retired[idOf[key]] {
					t.Fatalf("seed %d: job %s neither listed nor retired by a done record after recovery (lost)", seed, idOf[key])
				}
				hit, err := s2.Submit(r, true)
				if err != nil {
					t.Fatal(err)
				}
				if v := s2.View(hit, false); !v.Cached {
					t.Fatalf("seed %d: retired job %s's request is not a cache hit after recovery", seed, idOf[key])
				}
				art, _ := s2.cache.Get(key)
				assertSameArtifacts(t, want[key], art)
			}
		})
	}
}
