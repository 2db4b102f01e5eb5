package serve

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"misp/internal/workloads"
)

// TestCheckpointedRunBitIdentical is the determinism difftest of the
// checkpointing executor: a run that pauses and persists an image every
// N cycles produces artifacts byte-identical to an uninterrupted run —
// cold and against a warm pool.
func TestCheckpointedRunBitIdentical(t *testing.T) {
	for _, warmPool := range []bool{false, true} {
		t.Run(map[bool]string{false: "fast/cold", true: "fast/warm"}[warmPool], func(t *testing.T) {
			c := mustCanonical(t, tinyRun())
			wantArt, wantRes, err := Execute(context.Background(), c)
			if err != nil {
				t.Fatal(err)
			}
			every := wantRes.Cycles / 4
			if every == 0 {
				t.Fatalf("run too short to checkpoint (%d cycles)", wantRes.Cycles)
			}

			var warm *workloads.WarmPool
			if warmPool {
				warm = workloads.NewWarmPool()
				// Prime the pool so the checkpointed run forks a warm image.
				if _, _, err := ExecuteCheckpointed(context.Background(), c, warm, nil); err != nil {
					t.Fatal(err)
				}
			}
			ckpts := 0
			cs := &CheckpointSpec{
				Dir:          t.TempDir(),
				Every:        every,
				OnCheckpoint: func(uint64) { ckpts++ },
			}
			gotArt, gotRes, err := ExecuteCheckpointed(context.Background(), c, warm, cs)
			if err != nil {
				t.Fatal(err)
			}
			if ckpts < 2 {
				t.Fatalf("took %d checkpoints, want >= 2 (every %d of %d cycles)", ckpts, every, wantRes.Cycles)
			}
			if gotRes.Cycles != wantRes.Cycles || gotRes.Checksum != wantRes.Checksum {
				t.Fatalf("result diverged: %+v != %+v", gotRes, wantRes)
			}
			assertSameArtifacts(t, wantArt, gotArt)
			// The completed run cleans its image up.
			if _, err := os.Stat(cs.path(c.Key())); !os.IsNotExist(err) {
				t.Fatalf("completed run left its checkpoint image: %v", err)
			}
		})
	}
}

// TestCheckpointResumeBitIdentical kills a run mid-flight (context
// cancellation right after its first persisted checkpoint — the
// in-process analogue of SIGKILL) and re-executes: the second call must
// resume from the image, not start over, and the final artifacts must
// be byte-identical to a never-interrupted run.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	t.Run("fast", func(t *testing.T) {
		c := mustCanonical(t, tinyRun())
		wantArt, wantRes, err := Execute(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		every := wantRes.Cycles / 4
		if every == 0 {
			t.Fatalf("run too short to checkpoint (%d cycles)", wantRes.Cycles)
		}
		dir := t.TempDir()

		// First incarnation: die right after the first checkpoint.
		ctx, cancel := context.WithCancelCause(context.Background())
		cs1 := &CheckpointSpec{
			Dir:   dir,
			Every: every,
			OnCheckpoint: func(uint64) {
				cancel(errors.New("test: simulated kill"))
			},
		}
		if _, _, err := ExecuteCheckpointed(ctx, c, nil, cs1); err == nil {
			t.Fatal("killed run reported success")
		}
		cancel(nil)
		if _, err := os.Stat(cs1.path(c.Key())); err != nil {
			t.Fatalf("killed run left no resumable image: %v", err)
		}

		// Second incarnation: must resume from the image.
		var resumedAt uint64
		cs2 := &CheckpointSpec{
			Dir:       dir,
			Every:     every,
			OnRestore: func(cycle uint64) { resumedAt = cycle },
		}
		gotArt, gotRes, err := ExecuteCheckpointed(context.Background(), c, nil, cs2)
		if err != nil {
			t.Fatal(err)
		}
		if resumedAt == 0 {
			t.Fatal("second incarnation did not resume from the checkpoint")
		}
		if resumedAt >= wantRes.Cycles {
			t.Fatalf("resumed at cycle %d, beyond the full run's %d", resumedAt, wantRes.Cycles)
		}
		if gotRes.Cycles != wantRes.Cycles || gotRes.Checksum != wantRes.Checksum {
			t.Fatalf("resumed result diverged: %+v != %+v", gotRes, wantRes)
		}
		assertSameArtifacts(t, wantArt, gotArt)
	})
}

// TestCheckpointCorruptImageFallsBackCold: an unreadable image — plain
// garbage, or a checkpoint left next to the journal by a build with an
// older snapshot format — is discarded (OnCorrupt) and the run starts
// cold — same bytes, no error.
func TestCheckpointCorruptImageFallsBackCold(t *testing.T) {
	c := mustCanonical(t, tinyRun())
	wantArt, wantRes, err := Execute(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	images := map[string][]byte{
		"garbage":       []byte("not a snapshot image"),
		"stale-version": []byte("MISPSNP2\x02\x00\x00\x00a version-2 machine image"),
		"stale-v3":      []byte("MISPSNP3\x03\x00\x00\x00a version-3 machine image"),
		"stale-v4":      []byte("MISPSNP4\x04\x00\x00\x00a version-4 machine image"),
	}
	for name, image := range images {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cs := &CheckpointSpec{Dir: dir, Every: wantRes.Cycles / 2}
			if err := os.WriteFile(cs.path(c.Key()), image, 0o644); err != nil {
				t.Fatal(err)
			}
			var corrupt error
			cs.OnCorrupt = func(err error) { corrupt = err }

			gotArt, gotRes, err := ExecuteCheckpointed(context.Background(), c, nil, cs)
			if err != nil {
				t.Fatal(err)
			}
			if corrupt == nil {
				t.Fatal("corrupt image was not reported")
			}
			if _, err := os.Stat(cs.path(c.Key())); !os.IsNotExist(err) {
				t.Fatal("corrupt image was not discarded")
			}
			if gotRes.Cycles != wantRes.Cycles {
				t.Fatalf("cold fallback diverged: %d cycles, want %d", gotRes.Cycles, wantRes.Cycles)
			}
			assertSameArtifacts(t, wantArt, gotArt)
		})
	}
}

// TestServerCheckpointMetadata: the served path end to end — a journaled
// server with checkpointing enabled completes a run, surfaces the last
// checkpoint cycle in the job view and counts its checkpoints, and
// journals none of them: the image is a checkpoint's only record, so
// the job's journal is its accepted, started and done records.
func TestServerCheckpointMetadata(t *testing.T) {
	wantRes := func() *Result {
		_, r, err := Execute(context.Background(), mustCanonical(t, tinyRun()))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}()
	jdir, cdir := durableDirs(t)
	s := newTestServer(t, Config{
		Workers: 1, JournalDir: jdir, CacheDir: cdir,
		CheckpointCycles: wantRes.Cycles / 3,
	})
	j, err := s.Submit(tinyRun(), true)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if j.Status != StatusDone {
		t.Fatalf("status=%s err=%q", j.Status, j.Err)
	}
	v := s.View(j, false)
	if v.Checkpoint == 0 {
		t.Fatal("job view surfaces no checkpoint cycle")
	}
	if got := s.reg.CounterValue("serve.resume.checkpoints"); got < 2 {
		t.Fatalf("serve.resume.checkpoints = %d, want >= 2", got)
	}
	if !strings.Contains(s.Metrics(), "serve.resume.checkpoints") {
		t.Fatal("/metrics does not expose serve.resume.checkpoints")
	}
	if err := s.Drain(context.Background()); err != nil { // the worker writes the done record after waiters wake
		t.Fatal(err)
	}
	if got := s.reg.CounterValue("serve.journal.appends"); got != 3 {
		t.Fatalf("serve.journal.appends = %d, want 3 (accepted, started, done)", got)
	}
}
