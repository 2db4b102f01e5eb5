package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"misp/internal/asm"
	"misp/internal/isa"
	"misp/internal/mem"
	"misp/internal/obs"
)

// idleProxyProg: the OMS registers a proxy handler, signals a shred,
// and HLTs with no timer armed. The shred then page-faults; the proxy
// request must wake the idle OMS (§2.5) rather than deadlocking the
// machine.
const idleProxyProg = `
main:
    la  r1, proxy_handler
    setyield r1, 0
    li  r1, 1
    la  r2, shred
    li  r3, 0x70020000
    signal r1, r2, r3
    hlt                   ; idle; only the proxy request can wake us
    la  r4, flag
    li  r9, 0
wait:
    ldd r5, [r4]
    beq r5, r9, wait
    li  r0, 1
    li  r1, 55
    syscall
proxy_handler:
    proxyexec r1
    sret
shred:
    li  r6, 0x08000000    ; untouched heap page -> proxy page fault
    li  r7, 99
    std r7, [r6]
    li  r8, 1
    la  r4, flag
    std r8, [r4]
park:
    pause
    j park
.data
flag: .u64 0
`

// TestIdleOMSWokenByProxy is the regression test for the idle-OMS proxy
// wake deadlock: an AMS page fault while the OMS is idle with
// TimerDeadline == 0 must complete, not die in Run's deadlock branch.
func TestIdleOMSWokenByProxy(t *testing.T) {
	for _, legacy := range []bool{false, true} {
		b, m := idleProxyMachine(t, testCfg(1), idleProxyProg, legacy)
		oms := m.Procs[0].OMS()
		if err := m.Run(); err != nil {
			t.Fatalf("legacy=%v: run failed (idle-OMS deadlock?): %v", legacy, err)
		}
		if b.Err != nil {
			t.Fatalf("legacy=%v: %v", legacy, b.Err)
		}
		if !b.Exited || b.ExitCode != 55 {
			t.Fatalf("legacy=%v: exit = (%v, %d), want (true, 55)", legacy, b.Exited, b.ExitCode)
		}
		if m.Procs[0].Seqs[1].C.ProxyPageFaults == 0 {
			t.Fatalf("legacy=%v: shred took no proxy page fault", legacy)
		}
		if oms.C.IdleCycles == 0 {
			t.Fatalf("legacy=%v: OMS never idled — test lost its scenario", legacy)
		}
	}
}

// idleProxyMachine loads src (idleProxyProg or a variant) on the selected
// loop with tracing on, the image prefaulted and the OMS at ring 0, so the
// OMS reaches its HLT with no kernel entry and no timer armed.
func idleProxyMachine(t *testing.T, cfg Config, src string, oracle bool) (*BareOS, *Machine) {
	t.Helper()
	cfg.TraceEvents = true
	p := asm.MustAssemble(src)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Oracle = oracle
	b, err := LoadBare(m, p)
	if err != nil {
		t.Fatal(err)
	}
	// Prefault the image so no demand fault (whose ring-0 episode ends
	// back at ring 3) occurs before HLT executes.
	if _, err := b.Space.Prefault(p.TextBase, p.TextSize()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Space.Prefault(p.DataBase, p.DataSize()); err != nil {
		t.Fatal(err)
	}
	oms := m.Procs[0].OMS()
	oms.Ring = isa.Ring0 // allow HLT
	if oms.TimerDeadline != 0 {
		t.Fatal("precondition: timer must be unarmed")
	}
	return b, m
}

// TestPauseWhileEveryoneIdle: a pause cycle can fall where nothing is
// running and the next selection is an idle sequencer's wake. The OMS
// spins past the shred's page fault before its HLT, so when it idles the
// shred is already parked on its proxy request: with the pause on the
// HLT's own cycle the OMS goes idle with its clock past the pause, and the
// next event — its wake by the proxy request, 3000 cycles on — is a
// selection like any other. Run must return ErrPaused before making it (on
// the fast loop that check is runRound's own; no runBatch is involved), on
// the same pause cycles as the oracle, and the resumed run must end where
// an unpaused one does.
func TestPauseWhileEveryoneIdle(t *testing.T) {
	src := strings.Replace(idleProxyProg, "    hlt ", `    li  r12, 3500
    li  r9, 0
delay:
    addi r12, r12, -1
    bne r12, r9, delay
    hlt `, 1)
	var idleAt [2][]uint64
	for mode, legacy := range []bool{false, true} {
		_, ref := idleProxyMachine(t, testCfg(1), src, legacy)
		if err := ref.Run(); err != nil {
			t.Fatal(err)
		}
		// The OMS idled once, from its HLT to the proxy delivery.
		var hlt uint64
		for _, e := range ref.Obs.Bus.Events() {
			if e.Kind == obs.KProxyDeliver {
				hlt = e.TS - ref.Seqs[0].C.IdleCycles
			}
		}
		for pause := hlt - 8; pause < hlt+8; pause++ {
			b, m := idleProxyMachine(t, testCfg(1), src, legacy)
			m.SetPause(pause)
			if err := m.Run(); !errors.Is(err, ErrPaused) {
				t.Fatalf("legacy=%v pause=%d: run = %v, want ErrPaused", legacy, pause, err)
			}
			oms, ams := m.Seqs[0], m.Seqs[1]
			if oms.State == StateIdle {
				if ams.State != StateWaitProxy || oms.Clock <= pause {
					t.Errorf("legacy=%v pause=%d: paused with the OMS idle at clock %d, the shred %v",
						legacy, pause, oms.Clock, ams.State)
				}
				idleAt[mode] = append(idleAt[mode], pause)
			}
			m.SetPause(0)
			if err := m.Run(); err != nil || b.ExitCode != 55 {
				t.Fatalf("legacy=%v pause=%d: resumed run: %v, exit %d", legacy, pause, err, b.ExitCode)
			}
			if m.Steps != ref.Steps || m.MaxClock() != ref.MaxClock() {
				t.Errorf("legacy=%v pause=%d: resumed run ends at %d instrs / %d cycles, unpaused at %d / %d",
					legacy, pause, m.Steps, m.MaxClock(), ref.Steps, ref.MaxClock())
			}
		}
	}
	if len(idleAt[0]) == 0 || !reflect.DeepEqual(idleAt[0], idleAt[1]) {
		t.Errorf("pause cycles that stop in front of the idle OMS's wake: fast %v, oracle %v, want the same non-empty set",
			idleAt[0], idleAt[1])
	}
}

// TestDeliverDueOrder: with a timer (carrying a reschedule IPI), a proxy
// request and an ingress signal all due on a running OMS at one clock,
// deliverDue — the one statement of the order, which both loops call —
// takes the IPI, then the proxy request, then (once the proxy handler
// has returned) the signal. The loop difftests cannot see this order:
// both loops share it.
func TestDeliverDueOrder(t *testing.T) {
	m, err := New(testCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	p := asm.MustAssemble("main:\n    j main\n")
	if _, err := LoadBare(m, p); err != nil {
		t.Fatal(err)
	}
	oms, ams := m.Seqs[0], m.Seqs[1]
	const now = 1000
	oms.Clock, oms.TimerDeadline, oms.RescheduleIPI = now, now, true
	oms.Yield[isa.ScenarioProxy], oms.Yield[isa.ScenarioSignal] = p.Entry, p.Entry
	m.Procs[0].PendingProxy = []ProxyReq{{TS: now, AMS: ams, FrameVA: FrameVA(ams.ID)}}
	oms.pending = []PendingSignal{{TS: now, IP: p.Entry}}
	took := func() string {
		ints, proxies, signals := oms.C.Interrupts, len(m.Procs[0].PendingProxy), len(oms.pending)
		switch {
		case !m.deliverDue(oms):
			return "nothing"
		case oms.C.Interrupts != ints:
			return "ipi"
		case len(m.Procs[0].PendingProxy) != proxies:
			return "proxy"
		case len(oms.pending) != signals:
			return "signal"
		}
		return "unknown"
	}
	for i, want := range []string{"ipi", "proxy", "nothing", "signal"} {
		if i == 3 {
			oms.InHandler = false // the proxy handler returned
		}
		if got := took(); got != want {
			t.Fatalf("delivery %d took %s, want %s", i, got, want)
		}
	}
	if oms.RescheduleIPI || oms.C.Timers != 0 {
		t.Errorf("the IPI was not consumed in the tick's place: pending %v, %d ticks", oms.RescheduleIPI, oms.C.Timers)
	}
}

// TestPageFaultAddrAbove4GiB: a faulting VA above 4 GiB must be
// reported exactly, not truncated to its low 32 bits (the old PFAddr
// masked with 0xFFFFFFFF).
func TestPageFaultAddrAbove4GiB(t *testing.T) {
	p := asm.MustAssemble(`
main:
    li   r1, 0x100
    ldih r1, 1        ; r1 = 0x1_00000100, beyond the 32-bit space
    ldd  r2, [r1]
    li r0, 1
    syscall
`)
	_, _, err := RunBare(testCfg(0), p)
	if err == nil {
		t.Fatal("access above 4 GiB did not fault")
	}
	if !strings.Contains(err.Error(), "0x100000100") {
		t.Fatalf("fault address truncated: %v", err)
	}
}

// TestTLBTagIsFullWidth: the TLB tag was the page number truncated to
// 32 bits, so val + 2^44 — an address mem.Walk rejects — hit val's
// cached translation and read val instead of faulting. Both loops must
// raise a page fault whose info carries the whole address.
func TestTLBTagIsFullWidth(t *testing.T) {
	p := asm.MustAssemble(`
main:
    la   r1, val
    ldd  r2, [r1]         ; caches val's page
    li   r3, 0
    ldih r3, 0x1000       ; 2^44: the same low 32 page-number bits
    add  r1, r1, r3
    ldd  r4, [r1]
    mov  r1, r4
    li   r0, 1
    syscall
.data
val: .u64 77
`)
	want := fmt.Sprintf("%#x", p.Symbols["val"]+1<<44)
	for _, legacy := range []bool{false, true} {
		cfg := testCfg(0)
		b, _, err := runBareOn(cfg, p, legacy)
		if err == nil {
			t.Fatalf("legacy=%v: a load 2^44 above a cached page exited with %d, want a page fault", legacy, b.ExitCode)
		}
		if !strings.Contains(err.Error(), "segfault at "+want) {
			t.Fatalf("legacy=%v: want a page fault at %s, got: %v", legacy, want, err)
		}
	}
}

// TestVAAboveEncodeLimitIsGP: VAs at or above 2^62 would alias the
// page-fault info access bits; they must raise #GP instead.
func TestVAAboveEncodeLimitIsGP(t *testing.T) {
	p := asm.MustAssemble(`
main:
    li   r1, 0
    ldih r1, 0x40000000   ; r1 = 1<<62
    ldd  r2, [r1]
    li r0, 1
    syscall
`)
	_, _, err := RunBare(testCfg(0), p)
	if err == nil {
		t.Fatal("access at 1<<62 did not fault")
	}
	if !strings.Contains(err.Error(), "fatal trap") {
		t.Fatalf("expected a fatal #GP report, got: %v", err)
	}
}

// TestSretOutsideHandlerDoesNotRetire: a stray SRET is fatal and must
// not charge cost or count as a retired instruction on the way down.
func TestSretOutsideHandlerDoesNotRetire(t *testing.T) {
	b := asm.NewBuilder()
	b.Entry("main")
	b.Label("main")
	b.Emit(isa.Instr{Op: isa.OpSret})
	p := b.MustBuild()

	for _, legacy := range []bool{false, true} {
		cfg := testCfg(0)
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Oracle = legacy
		if _, err := LoadBare(m, p); err != nil {
			t.Fatal(err)
		}
		err = m.Run()
		if err == nil || !strings.Contains(err.Error(), "SRET outside a handler") {
			t.Fatalf("legacy=%v: expected stray-SRET fatal, got: %v", legacy, err)
		}
		// The demand fault that paged in the text charges cycles, but the
		// stray SRET itself must not retire.
		oms := m.Procs[0].OMS()
		if oms.C.Instrs != 0 || m.Steps != 0 {
			t.Fatalf("legacy=%v: fatal SRET retired: Instrs=%d Steps=%d", legacy, oms.C.Instrs, m.Steps)
		}
	}
}

// straddleMachine builds a loaded machine with exactly one resident
// heap page, returning the OMS positioned for direct loadN/storeN
// calls; va is the last word-misaligned address on the resident page
// such that an 8-byte access straddles into the unmapped next page.
func straddleMachine(t *testing.T) (*Machine, *Sequencer, uint64) {
	t.Helper()
	m, err := New(testCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	p := asm.MustAssemble(`
main:
    li r0, 1
    syscall
`)
	b, err := LoadBare(m, p)
	if err != nil {
		t.Fatal(err)
	}
	// Map the first heap page only; the next page stays unmapped.
	if _, err := b.Space.Prefault(asm.HeapBase, 1); err != nil {
		t.Fatal(err)
	}
	return m, m.Procs[0].OMS(), asm.HeapBase + mem.PageSize - 4
}

// TestStraddleStoreFaultsOnSecondPage: an 8-byte store crossing into an
// unmapped page must fault with the SECOND page's VA and must not leave
// a partial store on the first page.
func TestStraddleStoreFaultsOnSecondPage(t *testing.T) {
	m, oms, va := straddleMachine(t)
	secondPage := (va | uint64(mem.PageMask)) + 1

	f := m.storeN(oms, va, 8, 0xAABBCCDD_EEFF1122)
	if f == nil {
		t.Fatal("straddling store into unmapped page did not fault")
	}
	if f.trap != isa.TrapPageFault {
		t.Fatalf("trap = %v, want page fault", f.trap)
	}
	if got := PFAddr(f.info); got != secondPage {
		t.Fatalf("fault VA = %#x, want second page %#x", got, secondPage)
	}
	if !PFIsWrite(f.info) {
		t.Fatal("write fault not flagged as write")
	}
	// No partial store: the first page's covered bytes are untouched.
	pa, ff := m.translate(oms, va, false)
	if ff != nil {
		t.Fatalf("first page unexpectedly unmapped: %v", ff)
	}
	for i := uint64(0); i < 4; i++ {
		if v := m.Phys.ReadU8(pa + i); v != 0 {
			t.Fatalf("partial store leaked: byte %d of first page = %#x", i, v)
		}
	}
}

// TestStraddleLoadFaultsOnSecondPage: same contract for loads.
func TestStraddleLoadFaultsOnSecondPage(t *testing.T) {
	m, oms, va := straddleMachine(t)
	secondPage := (va | uint64(mem.PageMask)) + 1

	_, f := m.loadN(oms, va, 8)
	if f == nil {
		t.Fatal("straddling load from unmapped page did not fault")
	}
	if f.trap != isa.TrapPageFault {
		t.Fatalf("trap = %v, want page fault", f.trap)
	}
	if got := PFAddr(f.info); got != secondPage {
		t.Fatalf("fault VA = %#x, want second page %#x", got, secondPage)
	}
	if PFIsWrite(f.info) {
		t.Fatal("read fault flagged as write")
	}
}

// TestDecodeCacheSelfModify: a store into a code page must invalidate
// the fast loop's decoded form of it (the compiled page, keyed on the
// per-page store generation), so self-modifying code executes the
// patched instruction — even mid-batch on the fast path. The code runs from the writable heap;
// pass 1 executes `ldi r1, 1`, patches that word in place to
// `ldi r1, 7`, and pass 2 must observe the patch: r10 = 1 + 7.
func TestDecodeCacheSelfModify(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.OpLdi, Rd: 1, Imm: 1},                         // 0: target (patched)
		{Op: isa.OpAdd, Rd: 10, Rs1: 10, Rs2: 1},               // 1: r10 += r1
		{Op: isa.OpAddi, Rd: 4, Rs1: 4, Imm: 1},                // 2: pass counter
		{Op: isa.OpSlti, Rd: 5, Rs1: 4, Imm: 2},                // 3: r5 = pass < 2
		{Op: isa.OpBeq, Rs1: 5, Rs2: 0, Imm: 4 * isa.WordSize}, // 4: pass 2 -> halt
		{Op: isa.OpStd, Rd: 3, Rs1: 2, Imm: 0},                 // 5: *target = r3
		{Op: isa.OpJmp, Imm: -6 * isa.WordSize},                // 6: back to target
		{Op: isa.OpNop},                                        // 7
		{Op: isa.OpHalt},                                       // 8
	}
	loader := asm.MustAssemble(`
main:
    li r0, 1
    syscall
`)
	for _, legacy := range []bool{false, true} {
		cfg := testCfg(0)
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Oracle = legacy
		b, err := LoadBare(m, loader)
		if err != nil {
			t.Fatal(err)
		}
		for i, in := range code {
			if err := b.Space.WriteU64(asm.HeapBase+uint64(i)*isa.WordSize, in.Encode()); err != nil {
				t.Fatal(err)
			}
		}
		oms := m.Procs[0].OMS()
		oms.PC = asm.HeapBase
		oms.Ring = isa.Ring0 // allow the final HALT
		oms.Regs[2] = asm.HeapBase
		oms.Regs[3] = isa.Instr{Op: isa.OpLdi, Rd: 1, Imm: 7}.Encode()
		if err := m.Run(); err != nil {
			t.Fatalf("legacy=%v: %v", legacy, err)
		}
		if oms.Regs[10] != 8 {
			t.Fatalf("legacy=%v: r10 = %d, want 8 (compiled page served a stale instruction?)",
				legacy, oms.Regs[10])
		}
	}
}
