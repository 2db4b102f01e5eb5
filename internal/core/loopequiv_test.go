package core

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"misp/internal/asm"
	"misp/internal/isa"
	"misp/internal/mem"
	"misp/internal/obs"
)

// Loop-equivalence difftest: the event-horizon fast path must be
// bit-identical to the legacy one-instruction-per-iteration loop —
// identical final clocks, Table 1 counters, retired-instruction counts,
// and obs event streams — on workloads that exercise every machine
// mechanism (signals, proxy execution, ring serialization, atomics,
// yield handlers).

// runLoop executes src on cfg with the selected loop and full tracing.
func runLoop(t *testing.T, cfg Config, src string, legacy bool) (*BareOS, *Machine) {
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
	if err := m.Run(); err != nil {
		t.Fatalf("run (legacy=%v): %v", legacy, err)
	}
	if b.Err != nil {
		t.Fatalf("run (legacy=%v): %v", legacy, b.Err)
	}
	return b, m
}

// runBareOn is RunBare on the selected loop.
func runBareOn(cfg Config, p *asm.Program, oracle bool) (*BareOS, *Machine, error) {
	m, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	m.Oracle = oracle
	b, err := LoadBare(m, p)
	if err != nil {
		return nil, m, err
	}
	if err := m.Run(); err != nil {
		return b, m, err
	}
	return b, m, b.Err
}

// checkEquiv runs src under the legacy loop (the reference) and the
// fast path, and demands bit-identical machine-visible outcomes.
func checkEquiv(t *testing.T, cfg Config, src string) {
	t.Helper()
	bL, mL := runLoop(t, cfg, src, true)
	bF, mF := runLoop(t, cfg, src, false)
	compareRuns(t, bL, mL, bF, mF)
}

// compareRuns is checkEquiv's comparison: a finished legacy-loop run
// against a finished fast-loop run of the same program.
func compareRuns(t *testing.T, bL *BareOS, mL *Machine, bF *BareOS, mF *Machine) {
	t.Helper()
	if bL.ExitCode != bF.ExitCode || bL.Out.String() != bF.Out.String() {
		t.Fatalf("outputs diverge: exit %d/%d out %q/%q",
			bL.ExitCode, bF.ExitCode, bL.Out.String(), bF.Out.String())
	}
	if mL.Steps != mF.Steps {
		t.Fatalf("steps diverge: legacy %d fast %d", mL.Steps, mF.Steps)
	}
	checkLedger(t, mL, "legacy")
	checkLedger(t, mF, "fast")
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
		if tl, tf := tlbStats(sl), tlbStats(sf); tl != tf {
			t.Errorf("%s: TLB hits/misses/perm-misses/flushes diverge: legacy %v fast %v", sl.Name(), tl, tf)
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
	if mL.prof != nil {
		// Samples is sorted, so the two tables are equal row for row: the
		// same PCs, each with the same cycles and the same count.
		if pL, pF := mL.prof.Samples(), mF.prof.Samples(); !reflect.DeepEqual(pL, pF) {
			t.Errorf("per-PC profiles diverge: legacy %d PCs / %d cycles, fast %d PCs / %d cycles",
				len(pL), mL.prof.TotalCycles(), len(pF), mF.prof.TotalCycles())
		}
	}
}

// checkLedger asserts that the cycle ledger of m's finished run closes:
// its privileged, idle, ring-stall and proxy-stall cycles fit in
// cycles.total, so the user remainder FinalizeMetrics publishes is never
// clamped to 0.
func checkLedger(t *testing.T, m *Machine, loop string) {
	t.Helper()
	reg := m.Obs.Metrics
	var parts uint64
	for _, name := range []string{obs.MCyclesPriv, obs.MCyclesIdle, obs.MCyclesRingStall, obs.MCyclesProxyStall} {
		parts += reg.CounterValue(name)
	}
	if total := reg.CounterValue(obs.MCyclesTotal); total == 0 || parts > total {
		t.Errorf("%s loop: the cycle ledger's parts sum to %d, cycles.total is %d", loop, parts, total)
	}
}

// tlbStats returns s's TLB counters: every fetch or data access that
// reaches the TLB on one loop must reach it on the other.
func tlbStats(s *Sequencer) [4]uint64 {
	return [4]uint64{s.TLB.Hits, s.TLB.Misses, s.TLB.PermMisses, s.TLB.Flushes}
}

func TestLoopEquivalenceShred(t *testing.T) {
	checkEquiv(t, testCfg(3), shredProg)
}

func TestLoopEquivalenceProxy(t *testing.T) {
	checkEquiv(t, testCfg(1), proxyProg)
	checkEquiv(t, testCfg(3), proxyProg)
}

// TestLoopEquivalenceProxyCrossPage puts the shred's proxied
// instructions on a different code page from the OMS's proxy handler:
// PROXYEXEC's re-execution then moves the OMS's fetch micro-cache off
// the handler page, and the handler's next fetch must re-translate (a
// TLB lookup) on the fast loop exactly as it does on the legacy one.
func TestLoopEquivalenceProxyCrossPage(t *testing.T) {
	pad := strings.Repeat("    nop\n", mem.PageSize/isa.WordSize)
	src := strings.Replace(proxyProg, "shred:\n", pad+"shred:\n", 1)
	checkEquiv(t, testCfg(1), src)
	checkEquiv(t, testCfg(3), src)
}

func TestLoopEquivalenceAtomics(t *testing.T) {
	// OMS and two shreds hammer a shared lock: interleaving-sensitive.
	const src = `
main:
    la  r1, proxy_handler
    setyield r1, 0
    li  r1, 1
    la  r2, shred
    li  r3, 0x70020000
    signal r1, r2, r3
    li  r1, 2
    la  r2, shred
    li  r3, 0x70040000
    signal r1, r2, r3
    li  r10, 300
    call work
    la  r4, done
    li  r8, 1
    aadd r7, r4, r8
    li  r9, 3
wj: ldd r5, [r4]
    bne r5, r9, wj
    la  r6, counter
    ldd r1, [r6]
    andi r1, r1, 255
    li  r0, 1
    syscall
proxy_handler:
    proxyexec r1
    sret
shred:
    li  r10, 300
    call work
    la  r4, done
    li  r8, 1
    aadd r7, r4, r8
park:
    pause
    j park
work:
    la  r2, lock
    la  r3, counter
wloop:
    li  r6, 0
    li  r7, 1
    mov r0, r6
acq:
    acas r0, r2, r7
    li  r9, 0
    beq r0, r9, got
    pause
    mov r0, r9
    j acq
got:
    ldd r8, [r3]
    addi r8, r8, 1
    std r8, [r3]
    li  r9, 0
    std r9, [r2]
    addi r10, r10, -1
    li  r9, 0
    bne r10, r9, wloop
    ret
.data
lock:    .u64 0
counter: .u64 0
done:    .u64 0
`
	checkEquiv(t, testCfg(2), src)
}

func TestLoopEquivalenceTimer(t *testing.T) {
	// Arm the timer aggressively so the fast path repeatedly crosses a
	// timer deadline mid-batch and must break exactly where the legacy
	// loop does. BareOS quiesces the timer after each firing, so re-arm
	// by shortening the interval and running a long compute loop.
	cfg := testCfg(1)
	cfg.TimerInterval = 20_000
	src := `
main:
    la  r1, proxy_handler
    setyield r1, 0
    li  r1, 1
    la  r2, shred
    li  r3, 0x70020000
    signal r1, r2, r3
    li  r10, 30000
mloop:
    addi r10, r10, -1
    li  r9, 0
    bne r10, r9, mloop
    la  r4, flag
wait:
    ldd r5, [r4]
    li  r9, 0
    beq r5, r9, wait
    li  r0, 1
    li  r1, 9
    syscall
proxy_handler:
    proxyexec r1
    sret
shred:
    li  r6, 5000
sloop:
    addi r6, r6, -1
    li  r9, 0
    bne r6, r9, sloop
    li  r8, 1
    la  r4, flag
    std r8, [r4]
park:
    pause
    j park
.data
flag: .u64 0
`
	// Arm the deadline on load (BareOS does not schedule; the machine
	// still takes the interrupt and quiesces).
	p := asm.MustAssemble(src)
	for _, legacy := range []bool{true, false} {
		cfg := cfg
		cfg.TraceEvents = true
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Oracle = legacy
		b, err := LoadBare(m, p)
		if err != nil {
			t.Fatal(err)
		}
		m.Procs[0].OMS().TimerDeadline = cfg.TimerInterval
		if err := m.Run(); err != nil || b.Err != nil {
			t.Fatalf("run (legacy=%v): %v / %v", legacy, err, b.Err)
		}
		if m.Procs[0].OMS().C.Timers == 0 {
			t.Fatalf("timer never fired (legacy=%v)", legacy)
		}
	}
	checkEquivArmed(t, cfg, p)
}

// checkEquivArmed is checkEquiv with the OMS timer armed at load.
func checkEquivArmed(t *testing.T, cfg Config, p *asm.Program) {
	t.Helper()
	var ms [2]*Machine
	for mode, legacy := range []bool{true, false} {
		c := cfg
		c.TraceEvents = true
		m, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		m.Oracle = legacy
		b, err := LoadBare(m, p)
		if err != nil {
			t.Fatal(err)
		}
		m.Procs[0].OMS().TimerDeadline = c.TimerInterval
		if err := m.Run(); err != nil || b.Err != nil {
			t.Fatalf("run (legacy=%v): %v / %v", legacy, err, b.Err)
		}
		ms[mode] = m
	}
	mL, mF := ms[0], ms[1]
	checkLedger(t, mL, "legacy")
	checkLedger(t, mF, "fast")
	if mL.Steps != mF.Steps || mL.MaxClock() != mF.MaxClock() {
		t.Fatalf("diverge: steps %d/%d clock %d/%d", mL.Steps, mF.Steps, mL.MaxClock(), mF.MaxClock())
	}
	for i := range mL.Seqs {
		if mL.Seqs[i].Clock != mF.Seqs[i].Clock || mL.Seqs[i].C != mF.Seqs[i].C {
			t.Errorf("%s diverges between loops", mL.Seqs[i].Name())
		}
	}
	evL, evF := mL.Obs.Bus.Events(), mF.Obs.Bus.Events()
	if len(evL) != len(evF) {
		t.Fatalf("event streams diverge in length: %d/%d", len(evL), len(evF))
	}
	for i := range evL {
		if evL[i] != evF[i] {
			t.Fatalf("event %d diverges:\nlegacy %+v\nfast   %+v", i, evL[i], evF[i])
		}
	}
}

// TestLoopEquivalenceBigCohort: one cohort has no capacity. 1 OMS + 20
// AMSs and 1 OMS + 62 (the most a processor admits) all run inside one
// wave; the shreds hammer
// one shared counter with atomics — ordered commits among all the members
// — so the commit order is observable in the final state.
func TestLoopEquivalenceBigCohort(t *testing.T) {
	const tmpl = `
main:
    la  r1, proxy_handler
    setyield r1, 0
    li  r1, 1
    li  r5, NSEQ
spawn:
    la  r2, shred
    li  r3, 0x70000000
    li  r4, 0x20000
    mul r6, r1, r4
    add r3, r3, r6
    signal r1, r2, r3
    addi r1, r1, 1
    bne r1, r5, spawn
    la  r4, done
    li  r9, NAMS
wait:
    ldd r5, [r4]
    bne r5, r9, wait
    la  r6, counter
    ldd r1, [r6]
    andi r1, r1, 255
    li  r0, 1
    syscall
proxy_handler:
    proxyexec r1
    sret
shred:
    li  r10, 40
    la  r3, counter
    li  r8, 1
sloop:
    aadd r7, r3, r8
    addi r10, r10, -1
    li  r9, 0
    bne r10, r9, sloop
    la  r4, done
    aadd r7, r4, r8
park:
    pause
    j park
.data
counter: .u64 0
done:    .u64 0
`
	for _, nAMS := range []int{20, 62} {
		src := strings.NewReplacer("NSEQ", strconv.Itoa(nAMS+1), "NAMS", strconv.Itoa(nAMS)).Replace(tmpl)
		bL, _ := runLoop(t, testCfg(nAMS), src, true)
		// nAMS shreds x 40 increments; the exit code is its low byte.
		if want := uint64(nAMS * 40 & 255); bL.ExitCode != want {
			t.Fatalf("%d AMSs: exit = %d, want %d", nAMS, bL.ExitCode, want)
		}
		checkEquiv(t, testCfg(nAMS), src)
	}
}

// TestLoopEquivalenceWaveOutsideEvent wakes an idle AMS in the middle of
// a two-member lockstep wave and makes the order observable: the woken
// shred's first instruction loads a counter one of the members stores on
// every loop iteration, so a member committing one instruction past the
// wake event — or the wake jumping ahead of a lower-ID member tied with
// it — changes the value seen (the exit code). The reader watches the
// lower-ID member (the OMS) or the higher-ID one (AMS 2); the delay loop
// lets AMS 2 settle into its loop before the wake, and the two nop pads
// sweep the wake across every phase pair of the members' four-cycle
// loops.
func TestLoopEquivalenceWaveOutsideEvent(t *testing.T) {
	for _, watched := range []string{"c0", "c2"} {
		for pad := 0; pad < 16; pad++ {
			checkEquiv(t, testCfg(2), outsideEventProg(watched, pad))
		}
	}
}

// outsideEventTmpl is TestLoopEquivalenceWaveOutsideEvent's program:
// WATCHED names the counter the woken reader loads, PAD1 and PAD2 are nop
// pads that shift the wake against the two members' loops.
const outsideEventTmpl = `
main:
    la  r6, c0
    li  r9, 0
    std r9, [r6]
    li  r1, 2
    la  r2, spin2
    la  r3, c2
    signal r1, r2, r3
    li  r12, 500
delay:
    addi r12, r12, -1
    bne r12, r9, delay
PAD1
    li  r1, 1
    la  r2, reader
    la  r3, WATCHED
    signal r1, r2, r3
PAD2
    li  r10, 0
    li  r11, 4000
loop0:
    addi r10, r10, 1
    std r10, [r6]
    blt r10, r11, loop0
    la  r4, done
    li  r9, 2
wj: ldd r5, [r4]
    bne r5, r9, wj
    la  r4, seen
    ldd r1, [r4]
    li  r0, 1
    syscall
spin2:
    mov r6, sp
    li  r10, 0
    li  r11, 4000
loop2:
    addi r10, r10, 1
    std r10, [r6]
    blt r10, r11, loop2
    j   finish
reader:
    ldd r5, [sp]
    la  r4, seen
    std r5, [r4]
finish:
    la  r4, done
    li  r8, 1
    aadd r7, r4, r8
park:
    pause
    j park
.data
c0:   .u64 0
c2:   .u64 0
seen: .u64 0
done: .u64 0
`

// outsideEventProg instantiates outsideEventTmpl for one watched counter
// and one of the 16 phase pairs.
func outsideEventProg(watched string, pad int) string {
	return strings.NewReplacer("WATCHED", watched,
		"PAD1\n", strings.Repeat("    nop\n", pad%4),
		"PAD2\n", strings.Repeat("    nop\n", pad/4)).Replace(outsideEventTmpl)
}

// TestLoopEquivalenceProfiled runs the fast loop with the per-PC profiler
// attached — every turn then goes through runBatch, one micro-op per
// runAhead call, never the wave — against the oracle: the full checkEquiv
// set plus the profile itself, which must hold the same PCs with the same
// cycles and counts, and the per-PC cycles must sum to what the clocks
// advanced.
func TestLoopEquivalenceProfiled(t *testing.T) {
	profiled := func(nAMS int) Config {
		cfg := testCfg(nAMS)
		cfg.ProfilePC = true
		return cfg
	}
	checkEquiv(t, profiled(3), shredProg)
	checkEquiv(t, profiled(1), proxyProg)
	checkEquiv(t, profiled(3), proxyProg)
	for _, watched := range []string{"c0", "c2"} {
		for pad := 0; pad < 16; pad++ {
			checkEquiv(t, profiled(2), outsideEventProg(watched, pad))
		}
	}
	// Where no cycle is charged outside an instruction — ring 0, the image
	// prefaulted, a HALT in place of the exit syscall, so no kernel entry,
	// no proxy round trip and no handler delivery — the per-PC cycles sum
	// to exactly what the clocks advanced outside idle time. idleProxyProg
	// has all of those, so there the sum can only stay below it.
	halting := strings.Replace(outsideEventProg("c2", 5), "    li  r0, 1\n    syscall\n", "    halt\n", 1)
	for _, c := range []struct {
		cfg   Config
		src   string
		exact bool
	}{{profiled(2), halting, true}, {profiled(1), idleProxyProg, false}} {
		var bs [2]*BareOS
		var ms [2]*Machine
		for i, legacy := range []bool{true, false} {
			bs[i], ms[i] = idleProxyMachine(t, c.cfg, c.src, legacy)
			if err := ms[i].Run(); err != nil || bs[i].Err != nil {
				t.Fatalf("run (legacy=%v): %v / %v", legacy, err, bs[i].Err)
			}
		}
		compareRuns(t, bs[0], ms[0], bs[1], ms[1])
		var busy uint64
		for _, s := range ms[1].Seqs {
			busy += s.Clock - s.C.IdleCycles
		}
		if total := ms[1].prof.TotalCycles(); total == 0 || total > busy || c.exact && total != busy {
			t.Errorf("profile attributes %d cycles, the clocks advanced %d outside idle time (exact=%v)", total, busy, c.exact)
		}
	}
}
