package workloads

import (
	"context"
	"errors"
	"testing"

	"misp/internal/core"
	"misp/internal/shredlib"
)

// TestRunCtxCanceled: a canceled context aborts the simulation — on
// both execution loops — and the abort surfaces as context.Canceled so
// callers can tell a host-side interrupt from a simulation failure.
func TestRunCtxCanceled(t *testing.T) {
	w, err := ByName("dense_mmm")
	if err != nil {
		t.Fatal(err)
	}
	for _, legacy := range []bool{false, true} {
		pr, err := Prepare(w, shredlib.ModeShred, DefaultConfig(core.Topology{3}), SizeTest)
		if err != nil {
			t.Fatal(err)
		}
		defer pr.Release()
		pr.Machine.Oracle = legacy
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err = pr.RunCtx(ctx)
		if err == nil {
			t.Fatalf("legacy=%v: canceled run completed", legacy)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("legacy=%v: err = %v, want context.Canceled", legacy, err)
		}
	}
}

// TestRunCtxBackground: attaching a background context must not change
// results — the cancellation hook is free when unused.
func TestRunCtxBackground(t *testing.T) {
	w, err := ByName("dense_mmm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(core.Topology{3})
	plain, err := Run(w, shredlib.ModeShred, cfg, SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := RunCtx(context.Background(), w, shredlib.ModeShred, cfg, SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cycles != withCtx.Cycles || plain.Checksum != withCtx.Checksum {
		t.Fatalf("context-attached run diverged: %d/%g vs %d/%g",
			plain.Cycles, plain.Checksum, withCtx.Cycles, withCtx.Checksum)
	}
}
