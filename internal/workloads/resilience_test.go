package workloads

import (
	"errors"
	"testing"

	"misp/internal/core"
	"misp/internal/fault"
	"misp/internal/shredlib"
	"misp/internal/sweep"
)

// The seeded fault-campaign matrix: the robustness invariant under
// test is that every campaign either completes with the correct
// checksum or terminates with a structured fault.Diagnosis — never a
// hang (execution is bounded by watchdog + MaxCycles), never a panic
// (sweep.Map converts one into that job's error, which would fail
// here). Kernel-killed guests (e.g. a bit flip segfaulted the program)
// are upgraded to a Diagnosis exactly as the experiment harness does.

var campaignKindSets = [][]fault.Kind{
	{fault.SignalDrop, fault.SignalDelay},
	{fault.ProxyDrop, fault.SpuriousYield},
	{fault.AMSStall, fault.AMSKill},
	{fault.TLBFlush, fault.TLBCorrupt},
	{fault.MemBitFlip},
	nil, // all kinds at once
}

func TestFaultCampaignMatrix(t *testing.T) {
	w, err := ByName("dense_mmm")
	if err != nil {
		t.Fatal(err)
	}
	want := w.Ref(SizeTest)
	tops := []core.Topology{{1}, {3}, {7}}
	seeds := 11
	if testing.Short() {
		seeds = 2
	}
	nK, nT := len(campaignKindSets), len(tops)
	total := nK * nT * seeds

	type verdict struct{ outcome string }
	runs, _, err := sweep.Map(0, total, func(i int) (verdict, error) {
		ki, ti, si := i/(nT*seeds), (i/seeds)%nT, i%seeds
		cfg := testConfig(tops[ti])
		// Bound the spin-to-limit worst case: a campaign that loses a
		// shred unrecoverably leaves the joiner spinning until MaxCycles.
		cfg.MaxCycles = 200_000_000
		cfg.Fault = fault.Uniform(uint64(i)*2_654_435_761+uint64(si), 20_000, campaignKindSets[ki]...)
		pr, err := Prepare(w, shredlib.ModeShred, cfg, SizeTest)
		if err != nil {
			return verdict{}, err
		}
		res, runErr := pr.Run()
		var d *fault.Diagnosis
		switch {
		case runErr == nil && res.Checksum == want:
			return verdict{"ok"}, nil
		case runErr == nil:
			// Silent corruption: the harness upgrades it to a Diagnosis.
			diag := pr.Machine.Diagnose(fault.ReasonCorruption,
				errors.New("checksum mismatch"))
			if !errors.As(diag, &d) || d.Reason != fault.ReasonCorruption {
				return verdict{}, errors.New("corruption verdict is not a Diagnosis")
			}
			return verdict{"corrupted"}, nil
		case errors.As(runErr, &d):
			return verdict{"diagnosed"}, nil
		default:
			// Kernel kill: must upgrade cleanly, like the harness does.
			diag := pr.Machine.Diagnose(fault.ReasonKernel, runErr)
			if !errors.As(diag, &d) {
				return verdict{}, runErr
			}
			return verdict{"killed"}, nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, r := range runs {
		counts[r.outcome]++
	}
	t.Logf("campaigns=%d ok=%d diagnosed=%d killed=%d corrupted=%d",
		total, counts["ok"], counts["diagnosed"], counts["killed"], counts["corrupted"])
	if counts["ok"] == 0 {
		t.Fatal("no campaign completed — recovery plane recovered nothing")
	}
}

// TestFaultCampaignDeterminism replays one campaign and demands the
// identical outcome, cycle count, and injection schedule.
func TestFaultCampaignDeterminism(t *testing.T) {
	w, err := ByName("dense_mmm")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (string, uint64, string) {
		cfg := testConfig(core.Topology{3})
		cfg.MaxCycles = 200_000_000
		cfg.Fault = fault.Uniform(99, 10_000)
		pr, err := Prepare(w, shredlib.ModeShred, cfg, SizeTest)
		if err != nil {
			t.Fatal(err)
		}
		_, runErr := pr.Run()
		msg := ""
		if runErr != nil {
			msg = runErr.Error()
		}
		return msg, pr.Machine.MaxClock(), pr.Machine.FaultPlan().LogString()
	}
	e1, c1, l1 := run()
	e2, c2, l2 := run()
	if e1 != e2 || c1 != c2 || l1 != l2 {
		t.Fatalf("replay diverged:\nerr  %q vs %q\nclk  %d vs %d\nplan %q vs %q",
			e1, e2, c1, c2, l1, l2)
	}
}
