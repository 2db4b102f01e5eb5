package core

import (
	"slices"
	"strings"
	"testing"

	"misp/internal/asm"
	"misp/internal/isa"
	"misp/internal/obs"
)

// testCfg returns a small uniprocessor config: 1 OMS + nAMS.
func testCfg(nAMS int) Config {
	cfg := DefaultConfig(Topology{nAMS})
	cfg.PhysMem = 32 << 20
	cfg.MaxCycles = 500_000_000
	return cfg
}

func run(t *testing.T, cfg Config, prog *asm.Program) (*BareOS, *Machine) {
	t.Helper()
	b, m, err := RunBare(cfg, prog)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return b, m
}

func TestExitCode(t *testing.T) {
	p := asm.MustAssemble(`
main:
    li r1, 41
    addi r1, r1, 1
    li r0, 1      ; SysExit
    syscall
`)
	b, m := run(t, testCfg(0), p)
	if !b.Exited || b.ExitCode != 42 {
		t.Fatalf("exit = (%v, %d), want (true, 42)", b.Exited, b.ExitCode)
	}
	if m.Procs[0].OMS().C.Instrs == 0 {
		t.Fatal("no instructions retired")
	}
	if m.Procs[0].OMS().C.Syscalls != 1 {
		t.Fatalf("syscalls = %d, want 1", m.Procs[0].OMS().C.Syscalls)
	}
}

func TestWriteSyscall(t *testing.T) {
	p := asm.MustAssemble(`
main:
    la r1, msg
    li r2, 5
    li r0, 3      ; SysWrite
    syscall
    li r0, 1
    li r1, 0
    syscall
.data
msg: .asciiz "hello"
`)
	b, _ := run(t, testCfg(0), p)
	if got := b.Out.String(); got != "hello" {
		t.Fatalf("out = %q, want hello", got)
	}
}

func TestArithmeticAndBranches(t *testing.T) {
	// Sum 1..100 = 5050, exit with low byte (5050 & 0xFF = 186).
	p := asm.MustAssemble(`
main:
    li r1, 0      ; sum
    li r2, 1      ; i
    li r3, 100
loop:
    add r1, r1, r2
    addi r2, r2, 1
    bge r3, r2, loop
    andi r1, r1, 255
    li r0, 1
    syscall
`)
	b, _ := run(t, testCfg(0), p)
	if b.ExitCode != 5050&255 {
		t.Fatalf("exit = %d, want %d", b.ExitCode, 5050&255)
	}
}

func TestFloatOps(t *testing.T) {
	// sqrt(2.25) * 4 - 1 = 5; exit code 5.
	p := asm.MustAssemble(`
main:
    la r1, vals
    fld f1, [r1]
    fsqrt f2, f1
    fld f3, [r1+8]
    fmul f4, f2, f3
    fld f5, [r1+16]
    fsub f6, f4, f5
    ftoi r1, f6
    li r0, 1
    syscall
.data
vals: .f64 2.25, 4.0, 1.0
`)
	b, _ := run(t, testCfg(0), p)
	if b.ExitCode != 5 {
		t.Fatalf("exit = %d, want 5", b.ExitCode)
	}
}

func TestDemandPagingCountsFaults(t *testing.T) {
	// Touch 16 heap pages one byte each.
	p := asm.MustAssemble(`
main:
    li r1, 0x08000000
    li r2, 16
loop:
    stb r2, [r1]
    li r3, 4096
    add r1, r1, r3
    addi r2, r2, -1
    li r9, 0
    bne r2, r9, loop
    li r0, 1
    li r1, 0
    syscall
`)
	b, m := run(t, testCfg(0), p)
	_ = b
	oms := m.Procs[0].OMS()
	if oms.C.PageFaults < 16 {
		t.Fatalf("page faults = %d, want >= 16", oms.C.PageFaults)
	}
	if oms.TLB.Misses == 0 {
		t.Fatalf("TLB stats: hits=%d misses=%d", oms.TLB.Hits, oms.TLB.Misses)
	}
}

func TestPrefaultEliminatesFaults(t *testing.T) {
	// Prefault the heap range first (the §5.3 page-probe optimization),
	// then touch: no demand faults for the touched range.
	p := asm.MustAssemble(`
main:
    li r1, 0x08000000
    li r2, 65536
    li r0, 9       ; SysPrefault
    syscall
    li r1, 0x08000000
    li r2, 16
loop:
    stb r2, [r1]
    li r3, 4096
    add r1, r1, r3
    addi r2, r2, -1
    li r9, 0
    bne r2, r9, loop
    li r0, 1
    li r1, 0
    syscall
`)
	_, m := run(t, testCfg(0), p)
	oms := m.Procs[0].OMS()
	// Faults: text fetch + data-ish, but none for the 16 prefaulted pages.
	if oms.C.PageFaults > 3 {
		t.Fatalf("page faults = %d, want <= 3 after prefault", oms.C.PageFaults)
	}
}

// shredProg builds a program where main starts a shred on AMS 1 and
// waits for it to publish a value.
const shredProg = `
main:
    li  r1, 1          ; sid
    la  r2, shred
    li  r3, ` + "0x70020000" + `  ; stack for the shred
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
shred:
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

func TestSignalStartsShred(t *testing.T) {
	p := asm.MustAssemble(shredProg)
	b, m := run(t, testCfg(3), p)
	// Global ID of p0.ams1 is 1, so the shred wrote 101.
	if b.ExitCode != 101 {
		t.Fatalf("exit = %d, want 101", b.ExitCode)
	}
	oms := m.Procs[0].OMS()
	ams := m.Procs[0].Seqs[1]
	if oms.C.SignalsSent != 1 || ams.C.SignalsReceived != 1 {
		t.Fatalf("signals: sent=%d received=%d", oms.C.SignalsSent, ams.C.SignalsReceived)
	}
	if ams.C.Instrs == 0 {
		t.Fatal("AMS retired nothing")
	}
	// The shred observed the signal no earlier than SignalCost cycles in.
	if ams.Clock < m.Cfg.SignalCost {
		t.Fatalf("AMS clock %d < signal cost", ams.Clock)
	}
}

func TestSignalBadSIDFaults(t *testing.T) {
	p := asm.MustAssemble(`
main:
    li r1, 9      ; no such sequencer in a 1x2 processor
    la r2, main
    li r3, 0x70020000
    signal r1, r2, r3
    li r0, 1
    syscall
`)
	b, _, err := RunBare(testCfg(1), p)
	// The GP trap lands in BareOS, which reports it as fatal.
	if err == nil && b.Err == nil {
		t.Fatal("bad SID did not fault")
	}
}

// proxyProg: main registers the canonical proxy handler, starts a shred
// that (a) stores to an untouched heap page — a proxy page fault — and
// (b) performs a write syscall — a proxy syscall — then publishes.
const proxyProg = `
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
    proxyexec r1
    sret

shred:
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

func TestProxyExecution(t *testing.T) {
	p := asm.MustAssemble(proxyProg)
	b, m := run(t, testCfg(1), p)
	if b.ExitCode != 77 {
		t.Fatalf("exit = %d, want 77", b.ExitCode)
	}
	if got := b.Out.String(); got != "abc" {
		t.Fatalf("proxied write produced %q, want abc", got)
	}
	ams := m.Procs[0].Seqs[1]
	if ams.C.ProxyPageFaults < 1 {
		t.Fatalf("proxy page faults = %d, want >= 1", ams.C.ProxyPageFaults)
	}
	if ams.C.ProxySyscalls != 1 {
		t.Fatalf("proxy syscalls = %d, want 1", ams.C.ProxySyscalls)
	}
	if ams.C.ProxyStall == 0 {
		t.Fatal("no proxy stall recorded")
	}
	oms := m.Procs[0].OMS()
	if oms.C.YieldsTaken < 2 {
		t.Fatalf("OMS yields = %d, want >= 2", oms.C.YieldsTaken)
	}
	// The embedded re-executions are accounted separately from the
	// OMS's own serializing events (Table 1 semantics).
	if oms.C.ProxiedServices < 2 { // shred's PF + shred's write
		t.Fatalf("OMS proxied services = %d, want >= 2", oms.C.ProxiedServices)
	}
	if oms.C.Syscalls < 1 { // main's exit
		t.Fatalf("OMS syscalls = %d, want >= 1", oms.C.Syscalls)
	}
	// Verify the heap store actually landed.
	v, err := b.Space.ReadU64(0x08000000)
	if err != nil || v != 123 {
		t.Fatalf("heap store = (%d, %v), want 123", v, err)
	}
}

func TestRingSerializationStallsAMS(t *testing.T) {
	// Main performs many syscalls while a shred computes: the shred must
	// accumulate ring stall under the suspend-all policy.
	src := `
main:
    la  r1, proxy_handler
    setyield r1, 0
    li  r1, 1
    la  r2, shred
    li  r3, 0x70020000
    signal r1, r2, r3
    li  r10, 200
oloop:
    li  r0, 6        ; SysClock — a cheap serializing syscall
    syscall
    addi r10, r10, -1
    li  r9, 0
    bne r10, r9, oloop
    la  r4, flag
    li  r9, 0
wait:
    ldd r5, [r4]
    beq r5, r9, wait
    li  r0, 1
    li  r1, 0
    syscall
proxy_handler:
    proxyexec r1
    sret
shred:
    li  r6, 2000
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
	p := asm.MustAssemble(src)

	cfgA := testCfg(1)
	_, mA := run(t, cfgA, p)
	stallA := mA.Procs[0].Seqs[1].C.RingStall
	if stallA == 0 {
		t.Fatal("suspend-all policy produced zero ring stall")
	}

	// Monitor-CR policy: BareOS never writes CR3, so the AMS should see
	// no ring stall at all.
	cfgB := testCfg(1)
	cfgB.RingPolicy = RingMonitorCR
	_, mB := run(t, cfgB, p)
	stallB := mB.Procs[0].Seqs[1].C.RingStall
	if stallB != 0 {
		t.Fatalf("monitor-CR policy recorded %d ring stall, want 0", stallB)
	}
	if mB.MaxClock() >= mA.MaxClock() {
		t.Fatalf("monitor-CR (%d) not faster than suspend-all (%d)", mB.MaxClock(), mA.MaxClock())
	}
}

func TestSavectxLdctxRoundTrip(t *testing.T) {
	p := asm.MustAssemble(`
main:
    li r10, 7
    li r1, 0x08000000
    savectx r1
    ; fall through the first time; after ldctx we land here again with
    ; ALL registers restored (r10 = 7), so the been-here-before flag
    ; must live in memory.
    la  r4, flagd
    ldd r5, [r4]
    li  r9, 1
    beq r5, r9, done
    std r9, [r4]
    li  r10, 999
    ldctx r1
done:
    mov r1, r10
    li r0, 1
    syscall
.data
flagd: .u64 0
`)
	b, _ := run(t, testCfg(0), p)
	if b.ExitCode != 7 {
		t.Fatalf("exit = %d, want 7 (context restored)", b.ExitCode)
	}
}

func TestYieldSignalHandler(t *testing.T) {
	// The shred registers a ScenarioSignal handler, the OMS signals it
	// while running; the handler bumps a counter and SRETs.
	src := `
main:
    li  r1, 1
    la  r2, shred
    li  r3, 0x70020000
    signal r1, r2, r3
    la  r4, ready
    li  r9, 0
w1: ldd r5, [r4]
    beq r5, r9, w1
    li  r1, 1
    la  r2, unusedip
    li  r3, 0
    signal r1, r2, r3   ; ingress signal to the RUNNING shred
    la  r4, hits
w2: ldd r5, [r4]
    beq r5, r9, w2
    li  r0, 1
    ldd r1, [r4]
    syscall
unusedip:
    nop
shred:
    la  r1, handler
    setyield r1, 1      ; scenario 1 = ingress signal
    li  r8, 1
    la  r4, ready
    std r8, [r4]
spin:
    pause
    j spin
handler:
    li  r8, 1
    la  r4, hits
    aadd r7, r4, r8
    sret
.data
ready: .u64 0
hits:  .u64 0
`
	p := asm.MustAssemble(src)
	b, m := run(t, testCfg(1), p)
	if b.ExitCode != 1 {
		t.Fatalf("exit = %d, want 1 (handler ran once)", b.ExitCode)
	}
	ams := m.Procs[0].Seqs[1]
	if ams.C.YieldsTaken != 1 {
		t.Fatalf("AMS yields = %d, want 1", ams.C.YieldsTaken)
	}
}

func TestAtomicsAcrossSequencers(t *testing.T) {
	// OMS and one shred each do 500 lock-protected increments of a
	// non-atomic counter. Mutual exclusion must hold: final = 1000.
	src := `
main:
    la  r1, proxy_handler
    setyield r1, 0
    li  r1, 1
    la  r2, shred
    li  r3, 0x70020000
    signal r1, r2, r3
    li  r10, 500
    call work
    la  r4, done
    li  r8, 1
    aadd r7, r4, r8
    li  r9, 2
wj: ldd r5, [r4]
    bne r5, r9, wj
    la  r6, counter
    ldd r1, [r6]
    li  r0, 1
    syscall
proxy_handler:
    proxyexec r1
    sret
shred:
    li  r10, 500
    call work
    la  r4, done
    li  r8, 1
    aadd r7, r4, r8
park:
    pause
    j park

; work: r10 iterations of lock; counter++; unlock
work:
    la  r2, lock
    la  r3, counter
wloop:
    li  r6, 0          ; expected
    li  r7, 1          ; new
    mov r0, r6
acq:
    acas r0, r2, r7
    li  r9, 0
    beq r0, r9, got    ; old was 0 -> acquired
    pause
    mov r0, r9
    j acq
got:
    ldd r8, [r3]
    addi r8, r8, 1
    std r8, [r3]
    li  r9, 0
    std r9, [r2]       ; release
    addi r10, r10, -1
    li  r9, 0
    bne r10, r9, wloop
    ret
.data
lock:    .u64 0
counter: .u64 0
done:    .u64 0
`
	p := asm.MustAssemble(src)
	b, _ := run(t, testCfg(1), p)
	if b.ExitCode != 1000 {
		t.Fatalf("counter = %d, want 1000 (mutual exclusion violated?)", b.ExitCode)
	}
}

func TestDeterminism(t *testing.T) {
	p := asm.MustAssemble(proxyProg)
	_, m1 := run(t, testCfg(2), p)
	_, m2 := run(t, testCfg(2), p)
	if m1.MaxClock() != m2.MaxClock() || m1.Steps != m2.Steps {
		t.Fatalf("nondeterministic: clocks %d/%d steps %d/%d",
			m1.MaxClock(), m2.MaxClock(), m1.Steps, m2.Steps)
	}
	for i := range m1.Seqs {
		if m1.Seqs[i].C != m2.Seqs[i].C {
			t.Fatalf("seq %d counters differ between runs", i)
		}
	}
}

func TestDivZeroFatal(t *testing.T) {
	p := asm.MustAssemble(`
main:
    li r1, 5
    li r2, 0
    div r3, r1, r2
    li r0, 1
    syscall
`)
	b, _, err := RunBare(testCfg(0), p)
	if err == nil && (b == nil || b.Err == nil) {
		t.Fatal("div-by-zero did not fail")
	}
}

func TestSegfaultReported(t *testing.T) {
	p := asm.MustAssemble(`
main:
    li r1, 0x100    ; below any VMA (null guard)
    ldd r2, [r1]
    li r0, 1
    syscall
`)
	b, _, err := RunBare(testCfg(0), p)
	if err == nil {
		t.Fatal("segfault not reported")
	}
	if b.Err == nil || !strings.Contains(err.Error(), "segfault") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestTraceLog(t *testing.T) {
	cfg := testCfg(1)
	cfg.TraceEvents = true
	p := asm.MustAssemble(proxyProg)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadBare(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil || b.Err != nil {
		t.Fatalf("run: %v / %v", err, b.Err)
	}
	bus := m.Obs.Bus
	if bus.KindCount(obs.KProxyRequest) < 2 {
		t.Fatalf("trace has %d proxy requests, want >= 2", bus.KindCount(obs.KProxyRequest))
	}
	if bus.KindCount(obs.KRingEnter) == 0 || bus.KindCount(obs.KRingEnter) != bus.KindCount(obs.KRingExit) {
		t.Fatal("unbalanced ring enter/exit in trace")
	}
	if !slices.ContainsFunc(bus.Events(), func(e obs.Event) bool { return e.Kind.String() == "proxy-request" }) {
		t.Fatal("no proxy-request event in the buffer")
	}
}

func TestTopologyString(t *testing.T) {
	cases := []struct {
		top  Topology
		want string
	}{
		{Topology{7}, "1x8"},
		{Topology{3, 3}, "2x4"},
		{Topology{1, 1, 1, 1}, "4x2"},
		{Topology{3, 0, 0, 0, 0}, "1x4 + 4"},
		{Topology{0, 0, 0, 0, 0, 0, 0, 0}, "8"},
	}
	for _, c := range cases {
		if got := c.top.String(); got != c.want {
			t.Errorf("Topology%v = %q, want %q", c.top, got, c.want)
		}
		if c.top.Seqs() != 8 {
			t.Errorf("Topology%v.Seqs = %d, want 8", c.top, c.top.Seqs())
		}
	}
}

func TestParseTopology(t *testing.T) {
	for spec, want := range map[string]Topology{
		"7":         {7},
		" 3 , 0,0 ": {3, 0, 0},
		"3,,3":      nil, // empty field
		"3,3,":      nil, // trailing comma
		"":          nil,
	} {
		got, err := ParseTopology(spec)
		if (err != nil) != (want == nil) || !slices.Equal(got, want) {
			t.Errorf("ParseTopology(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
}

func TestParseRingPolicy(t *testing.T) {
	for _, p := range []RingPolicy{RingSuspendAll, RingMonitorCR} {
		if got, err := ParseRingPolicy(p.String()); got != p || err != nil {
			t.Errorf("ParseRingPolicy(%q) = %v, %v", p, got, err)
		}
	}
	for _, bad := range []string{"", "monitor", "Suspend-All"} {
		if _, err := ParseRingPolicy(bad); err == nil {
			t.Errorf("ParseRingPolicy(%q) accepted", bad)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Topology: Topology{-1}, PhysMem: 1 << 20, TimerInterval: 1},
		{Topology: Topology{1}, PhysMem: 12345, TimerInterval: 1},
		{Topology: Topology{1}, PhysMem: 1 << 20, TimerInterval: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	good := DefaultConfig(Topology{7})
	if err := good.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestRebindAMS(t *testing.T) {
	cfg := testCfg(2)
	cfg.Topology = Topology{2, 1} // p0: 2 AMS, p1: 1 AMS
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p0, p1 := m.Procs[0], m.Procs[1]
	donor := p1.Seqs[1] // p1.ams1, idle

	// Rejections first.
	if err := m.RebindAMS(p0.OMS(), 1); err == nil {
		t.Error("rebinding an OMS accepted")
	}
	if err := m.RebindAMS(donor, 1); err == nil {
		t.Error("rebind to own processor accepted")
	}
	if err := m.RebindAMS(donor, 9); err == nil {
		t.Error("rebind to bad processor accepted")
	}
	if err := m.RebindAMS(p0.Seqs[1], 1); err == nil {
		t.Error("rebinding a non-highest SID accepted")
	}
	donor.State = StateRunning
	if err := m.RebindAMS(donor, 0); err == nil {
		t.Error("rebinding a running AMS accepted")
	}
	donor.State = StateIdle

	// A legal rebind.
	p0.OMS().CRs[isa.CR3] = 0x42000
	if err := m.RebindAMS(donor, 0); err != nil {
		t.Fatal(err)
	}
	if len(p1.AMSs()) != 0 || len(p0.AMSs()) != 3 {
		t.Fatalf("topology after rebind: p0=%d p1=%d AMSs", len(p0.AMSs()), len(p1.AMSs()))
	}
	if donor.ProcID != 0 || donor.SID != 3 {
		t.Fatalf("rebound AMS identity: proc=%d sid=%d", donor.ProcID, donor.SID)
	}
	if donor.CRs[isa.CR3] != 0x42000 {
		t.Fatal("rebound AMS did not adopt target ring-0 state")
	}
	// Global IDs unchanged.
	if m.Seqs[donor.ID] != donor {
		t.Fatal("global sequencer table corrupted")
	}
}
