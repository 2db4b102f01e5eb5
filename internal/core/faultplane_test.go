package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"misp/internal/asm"
	"misp/internal/fault"
	"misp/internal/isa"
	"misp/internal/obs"
)

// Fault-plane difftests: with an injection plan attached, the legacy
// loop (oracle) and the fast path must still be bit-identical — same
// injection schedule, same clocks and counters, same obs event stream,
// and, when the run dies, the same structured Diagnosis. Faulty runs
// are allowed to fail; they are not allowed to fail differently.

// faultShredProg is shredProg hardened for injection: both the OMS and
// the shred register a yield handler so SpuriousYield has something to
// fire, and the handler guards proxyexec against the phantom trigger's
// zero argument.
const faultShredProg = `
main:
    la  r1, proxy_handler
    setyield r1, 0
    li  r1, 1          ; sid
    la  r2, shred
    li  r3, 0x70020000 ; stack for the shred
    signal r1, r2, r3
    la  r4, flag
    li  r9, 0
wait:
    ldd r5, [r4]
    beq r5, r9, wait
    la  r6, value
    ldd r1, [r6]
    li  r0, 1
    syscall

proxy_handler:
    li  r9, 0
    beq r1, r9, ph_skip
    proxyexec r1
ph_skip:
    sret

shred:
    la  r10, proxy_handler
    setyield r10, 0
    seqid r7, 0
    addi r7, r7, 100
    la  r6, value
    std r7, [r6]
    li  r8, 1
    la  r4, flag
    std r8, [r4]
park:
    pause
    j park
.data
flag:  .u64 0
value: .u64 0
`

// faultProxyProg is proxyProg with the same spurious-yield guard.
const faultProxyProg = `
main:
    la  r1, proxy_handler
    setyield r1, 0
    li  r1, 1
    la  r2, shred
    li  r3, 0x70020000
    signal r1, r2, r3
    la  r4, flag
    li  r9, 0
wait:
    ldd r5, [r4]
    beq r5, r9, wait
    li  r0, 1
    li  r1, 77
    syscall

proxy_handler:
    li  r9, 0
    beq r1, r9, ph_skip
    proxyexec r1
ph_skip:
    sret

shred:
    la  r10, proxy_handler
    setyield r10, 0
    li  r6, 0x08000000   ; untouched heap page -> proxy PF
    li  r7, 123
    std r7, [r6]
    la  r1, msg          ; proxy syscall: write
    li  r2, 3
    li  r0, 3
    syscall
    li  r8, 1
    la  r4, flag
    std r8, [r4]
park:
    pause
    j park
.data
flag: .u64 0
msg:  .asciiz "abc"
`

// runLoopFault is runLoop for runs that are allowed to die: it returns
// the run's terminal error (machine stop or BareOS kill) instead of
// failing the test on it.
func runLoopFault(t *testing.T, cfg Config, src string, legacy bool) (*BareOS, *Machine, error) {
	t.Helper()
	cfg.TraceEvents = true
	p := asm.MustAssemble(src)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Oracle = legacy
	b, err := LoadBare(m, p)
	if err != nil {
		t.Fatal(err)
	}
	runErr := m.Run()
	if runErr == nil {
		runErr = b.Err
	}
	return b, m, runErr
}

// checkEquivFault is checkEquiv under injection: legacy and fast must
// agree on outcome (success or the exact same error text), schedule,
// clocks, counters, and event stream.
func checkEquivFault(t *testing.T, cfg Config, src string) {
	t.Helper()
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	bL, mL, eL := runLoopFault(t, cfg, src, true)
	bF, mF, eF := runLoopFault(t, cfg, src, false)

	if errText(eL) != errText(eF) {
		t.Fatalf("outcomes diverge:\nlegacy: %v\nfast:   %v", eL, eF)
	}
	if eL == nil && (bL.ExitCode != bF.ExitCode || bL.Out.String() != bF.Out.String()) {
		t.Fatalf("outputs diverge: exit %d/%d out %q/%q",
			bL.ExitCode, bF.ExitCode, bL.Out.String(), bF.Out.String())
	}
	if pL, pF := mL.FaultPlan().LogString(), mF.FaultPlan().LogString(); pL != pF {
		t.Fatalf("injection schedules diverge:\nlegacy:\n%s\nfast:\n%s", pL, pF)
	}
	if mL.Steps != mF.Steps {
		t.Fatalf("steps diverge: legacy %d fast %d", mL.Steps, mF.Steps)
	}
	if mL.MaxClock() != mF.MaxClock() {
		t.Fatalf("wall clock diverges: legacy %d fast %d", mL.MaxClock(), mF.MaxClock())
	}
	for i := range mL.Seqs {
		sl, sf := mL.Seqs[i], mF.Seqs[i]
		if sl.Clock != sf.Clock {
			t.Errorf("%s: clock %d (legacy) != %d (fast)", sl.Name(), sl.Clock, sf.Clock)
		}
		if sl.C != sf.C {
			t.Errorf("%s: counters diverge:\nlegacy %+v\nfast   %+v", sl.Name(), sl.C, sf.C)
		}
	}
	evL, evF := mL.Obs.Bus.Events(), mF.Obs.Bus.Events()
	if len(evL) != len(evF) {
		t.Fatalf("event streams diverge in length: legacy %d fast %d", len(evL), len(evF))
	}
	for i := range evL {
		if evL[i] != evF[i] {
			t.Fatalf("event %d diverges:\nlegacy %+v\nfast   %+v", i, evL[i], evF[i])
		}
	}
}

// faultCfg bounds a faulty run tightly enough that spin-forever
// outcomes resolve quickly under the legacy loop.
func faultCfg(nAMS int, seed, period uint64, kinds ...fault.Kind) Config {
	cfg := testCfg(nAMS)
	cfg.MaxCycles = 2_000_000
	cfg.Fault = fault.Uniform(seed, period, kinds...)
	cfg.Fault.SignalDelay = 10_000
	cfg.Fault.StallCycles = 50_000
	return cfg
}

func TestFaultEquivShredAllKinds(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		checkEquivFault(t, faultCfg(3, seed, 2_000), faultShredProg)
	}
}

func TestFaultEquivProxyAllKinds(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		checkEquivFault(t, faultCfg(1, seed, 2_000), faultProxyProg)
	}
}

func TestFaultEquivKindSubsets(t *testing.T) {
	subsets := [][]fault.Kind{
		{fault.SignalDrop, fault.SignalDelay},
		{fault.ProxyDrop, fault.SpuriousYield},
		{fault.AMSStall, fault.AMSKill},
		{fault.TLBFlush, fault.TLBCorrupt},
		{fault.MemBitFlip},
	}
	for _, ks := range subsets {
		for seed := uint64(10); seed < 12; seed++ {
			checkEquivFault(t, faultCfg(3, seed, 1_000, ks...), faultShredProg)
		}
	}
}

func TestWatchdogDetectsLivelock(t *testing.T) {
	cfg := testCfg(1)
	cfg.WatchdogHorizon = 1_000
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// First tick arms the window; a tick past the horizon with retired
	// progress re-arms instead of tripping.
	m.watchdogTick(0)
	m.Steps = 10
	m.watchdogTick(1_000)
	if m.stopErr != nil {
		t.Fatalf("watchdog tripped despite progress: %v", m.stopErr)
	}
	// A full horizon with zero retirement is a livelock.
	m.watchdogTick(2_000)
	if m.stopErr == nil {
		t.Fatal("watchdog did not trip on a stalled horizon")
	}
	var d *fault.Diagnosis
	if !errors.As(m.stopErr, &d) {
		t.Fatalf("livelock abort is not a Diagnosis: %v", m.stopErr)
	}
	if d.Reason != fault.ReasonLivelock {
		t.Fatalf("reason = %q, want livelock", d.Reason)
	}
	if len(d.Seqs) != len(m.Seqs) {
		t.Fatalf("diagnosis covers %d of %d sequencers", len(d.Seqs), len(m.Seqs))
	}
	// The trip is one detection, published once however often the
	// metrics are finalized.
	for i := 0; i < 2; i++ {
		if err := m.FinalizeMetrics(); err != nil {
			t.Fatal(err)
		}
		if got := m.Obs.Metrics.CounterValue(obs.MFaultDetected); got != 1 {
			t.Fatalf("finalize %d: fault.detected = %d, want 1", i, got)
		}
	}
}

// idlingOS is a BareOS that parks the OMS at every timer tick and
// re-arms the timer: after the first tick the clock keeps advancing but
// nothing retires — a livelock for the watchdog, not a deadlock.
type idlingOS struct{ *BareOS }

func (o idlingOS) HandleTrap(s *Sequencer, trap isa.Trap, info uint64) {
	if trap != isa.TrapTimer {
		o.BareOS.HandleTrap(s, trap, info)
		return
	}
	s.State = StateIdle
	s.TimerDeadline = s.Clock + o.M.Cfg.TimerInterval
}

// TestWatchdogLivelockBareOS: with no kernel to publish detections, a
// real run that trips the watchdog still reads fault.detected 1, on
// both loops.
func TestWatchdogLivelockBareOS(t *testing.T) {
	p := asm.MustAssemble(`
main:
    j main
`)
	for _, legacy := range []bool{true, false} {
		cfg := testCfg(0)
		cfg.TimerInterval = 1_000
		cfg.WatchdogHorizon = 10_000
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := LoadBare(m, p)
		if err != nil {
			t.Fatal(err)
		}
		m.SetOS(idlingOS{b})
		m.Procs[0].OMS().TimerDeadline = cfg.TimerInterval
		m.Oracle = legacy
		err = m.Run()
		var d *fault.Diagnosis
		if !errors.As(err, &d) || d.Reason != fault.ReasonLivelock {
			t.Fatalf("legacy=%v: want a livelock Diagnosis, got %v", legacy, err)
		}
		if err := m.FinalizeMetrics(); err != nil {
			t.Fatal(err)
		}
		if got := m.Obs.Metrics.CounterValue(obs.MFaultDetected); got != 1 {
			t.Fatalf("legacy=%v: fault.detected = %d, want 1", legacy, got)
		}
	}
}

func TestCycleLimitIsDiagnosis(t *testing.T) {
	p := asm.MustAssemble(`
main:
    j main
`)
	for _, legacy := range []bool{true, false} {
		cfg := testCfg(0)
		cfg.MaxCycles = 100_000
		_, _, err := runBareOn(cfg, p, legacy)
		if err == nil {
			t.Fatalf("legacy=%v: infinite loop did not hit the cycle limit", legacy)
		}
		var d *fault.Diagnosis
		if !errors.As(err, &d) {
			t.Fatalf("legacy=%v: cycle-limit abort is not a Diagnosis: %v", legacy, err)
		}
		if d.Reason != fault.ReasonCycleLimit {
			t.Fatalf("legacy=%v: reason = %q, want cycle-limit", legacy, d.Reason)
		}
		if !strings.Contains(err.Error(), "cycle limit") {
			t.Fatalf("legacy=%v: message lacks detail: %v", legacy, err)
		}
	}
}

// TestCycleLimitPauseTie: with the pause point at the cycle limit, both
// stops are due on the same boundary and the pause wins — it is the
// non-fatal one, so the machine stays capturable. Both loops stop there
// with the same clocks, retirements and image; disarming the pause then
// lets the limit's Diagnosis through.
func TestCycleLimitPauseTie(t *testing.T) {
	const limit = 200_000
	for _, top := range cancelTops {
		var images [2][]byte
		var steps [2]uint64
		for i, legacy := range []bool{true, false} {
			m := spinMachine(t, top, limit)
			m.Oracle = legacy
			m.SetPause(limit)
			if err := m.Run(); !errors.Is(err, ErrPaused) {
				t.Fatalf("%v legacy=%v: run = %v, want ErrPaused", top, legacy, err)
			}
			for _, s := range m.Seqs {
				if s.State == StateRunning && s.Clock != limit+1 {
					t.Errorf("%v legacy=%v: %s paused at clock %d, want %d", top, legacy, s.Name(), s.Clock, limit+1)
				}
			}
			images[i], steps[i] = spinCapture(t, m), m.Steps
			m.SetPause(0)
			var d *fault.Diagnosis
			if err := m.Run(); !errors.As(err, &d) || d.Reason != fault.ReasonCycleLimit {
				t.Fatalf("%v legacy=%v: unpaused run = %v, want the cycle-limit Diagnosis", top, legacy, err)
			}
			m.Release()
		}
		if steps[0] != steps[1] || !bytes.Equal(images[0], images[1]) {
			t.Errorf("%v: the loops paused apart: %d vs %d instructions, images equal %v",
				top, steps[0], steps[1], bytes.Equal(images[0], images[1]))
		}
	}
}

func TestDiagnosisCarriesSchedule(t *testing.T) {
	// Kill aggressively so the shred dies before publishing and main
	// spins into the cycle limit; the Diagnosis must carry the plan log.
	// Scan seeds for a campaign that actually dies (a 1-AMS bareos run
	// has no kernel to recover it, so most kill schedules are fatal).
	p := asm.MustAssemble(faultShredProg)
	var m *Machine
	var err error
	for seed := uint64(0); seed < 32 && err == nil; seed++ {
		// Period 5 puts the first kill within the shred's short pre-publish
		// window (~8 retirements); later kills only hit the parked loop.
		_, m, err = RunBare(faultCfg(1, seed, 5, fault.AMSKill), p)
	}
	if err == nil {
		t.Fatal("no kill campaign died in 32 seeds — injection plane inert?")
	}
	var d *fault.Diagnosis
	if !errors.As(err, &d) {
		t.Fatalf("faulty abort is not a Diagnosis: %v", err)
	}
	if len(d.Log) == 0 || d.Log[0].Kind != fault.AMSKill {
		t.Fatalf("diagnosis lost the injection schedule: %v", d.Log)
	}
	if plan := m.FaultPlan(); plan == nil || plan.Total() == 0 {
		t.Fatal("machine lost its fault plan")
	}
}

// TestCycleLedgerDiagnosis: when the ledger's parts exceed cycles.total
// (here an AMS charged 2^40 idle cycles it never spent), a clean exit
// or a pause ends in a cycle-ledger Diagnosis instead of a user
// remainder clamped to 0, and a run that already failed keeps its own
// error.
func TestCycleLedgerDiagnosis(t *testing.T) {
	exit := asm.MustAssemble("main:\n    li r1, 0\n    li r0, 1\n    syscall\n")
	m, err := New(testCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBare(m, exit); err != nil {
		t.Fatal(err)
	}
	paused := spinMachine(t, Topology{1}, 1<<40)
	paused.SetPause(100_000)
	limited := spinMachine(t, Topology{1}, 100_000)
	for name, c := range map[string]struct {
		m    *Machine
		want string
	}{
		"exit":        {m, fault.ReasonCycleLedger},
		"pause":       {paused, fault.ReasonCycleLedger},
		"cycle-limit": {limited, fault.ReasonCycleLimit},
	} {
		c.m.Seqs[1].C.IdleCycles = 1 << 40
		err := c.m.Run()
		var d *fault.Diagnosis
		if !errors.As(err, &d) || d.Reason != c.want {
			t.Errorf("%s: Run returned %v, want a %s Diagnosis", name, err, c.want)
		}
		c.m.Release()
	}
}
