package kernel

import (
	"testing"

	"misp/internal/asm"
	"misp/internal/core"
)

func testCfg(top core.Topology) core.Config {
	cfg := core.DefaultConfig(top)
	cfg.PhysMem = 64 << 20
	cfg.MaxCycles = 2_000_000_000
	// Fast ticks so scheduling happens within small tests: a quantum
	// of core.QuantumTicks ticks is 40 000 cycles.
	cfg.TimerInterval = 8_000
	return cfg
}

func newKernelT(t *testing.T, cfg core.Config) (*Kernel, *core.Machine) {
	t.Helper()
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return New(m), m
}

func runK(t *testing.T, k *Kernel, m *core.Machine) {
	t.Helper()
	if err := m.Run(); err != nil {
		t.Fatalf("machine: %v", err)
	}
	if err := k.Err(); err != nil {
		t.Fatalf("kernel: %v", err)
	}
}

const exitProg = `
main:
    li r1, 7
    li r0, 1
    syscall
`

func TestSpawnAndExit(t *testing.T) {
	k, m := newKernelT(t, testCfg(core.Topology{0}))
	p, err := k.Spawn("exit7", asm.MustAssemble(exitProg))
	if err != nil {
		t.Fatal(err)
	}
	runK(t, k, m)
	if !p.Exited || p.ExitCode != 7 {
		t.Fatalf("process = (%v, %d), want (true, 7)", p.Exited, p.ExitCode)
	}
	if p.ExitTime == 0 {
		t.Fatal("exit time not recorded")
	}
}

func TestWriteOutput(t *testing.T) {
	k, m := newKernelT(t, testCfg(core.Topology{0}))
	p, _ := k.Spawn("hello", asm.MustAssemble(`
main:
    la r1, msg
    li r2, 3
    li r0, 3
    syscall
    li r0, 1
    li r1, 0
    syscall
.data
msg: .asciiz "hey"
`))
	runK(t, k, m)
	if got := p.Out.String(); got != "hey" {
		t.Fatalf("out = %q", got)
	}
}

// spinProg busy-loops r1 times then exits with code 1.
const spinProg = `
main:
    li r1, 300000
loop:
    addi r1, r1, -1
    li r9, 0
    bne r1, r9, loop
    li r0, 1
    li r1, 1
    syscall
`

func TestTimesharingTwoProcesses(t *testing.T) {
	k, m := newKernelT(t, testCfg(core.Topology{0})) // one CPU
	pa, _ := k.Spawn("a", asm.MustAssemble(spinProg))
	pb, _ := k.Spawn("b", asm.MustAssemble(spinProg))
	runK(t, k, m)
	if !pa.Exited || !pb.Exited {
		t.Fatal("not all processes exited")
	}
	if k.Stats.Switches == 0 || k.Stats.Ticks == 0 {
		t.Fatalf("no scheduling activity: %+v", k.Stats)
	}
	// On one CPU the second finisher needs roughly twice the time of a
	// solo run; both must overlap (interleaved finish times are close).
	d := int64(pb.ExitTime) - int64(pa.ExitTime)
	if d < 0 {
		d = -d
	}
	if uint64(d) > pa.ExitTime/2+m.Cfg.TimerInterval*4 {
		t.Fatalf("processes did not timeshare: exits %d vs %d", pa.ExitTime, pb.ExitTime)
	}
}

func TestTwoCPUsRunInParallel(t *testing.T) {
	// Same two processes on a 2-CPU SMP: finish in about half the time.
	k1, m1 := newKernelT(t, testCfg(core.Topology{0}))
	k1.Spawn("a", asm.MustAssemble(spinProg))
	k1.Spawn("b", asm.MustAssemble(spinProg))
	runK(t, k1, m1)
	serial := m1.MaxClock()

	k2, m2 := newKernelT(t, testCfg(core.Topology{0, 0}))
	k2.Spawn("a", asm.MustAssemble(spinProg))
	k2.Spawn("b", asm.MustAssemble(spinProg))
	runK(t, k2, m2)
	parallel := m2.MaxClock()

	if parallel*3 > serial*2 {
		t.Fatalf("2 CPUs not parallel: serial=%d parallel=%d", serial, parallel)
	}
}

const threadsProg = `
; main spawns 3 threads, each adds its arg into a cell, main joins all
; and exits with the total.
main:
    li  r10, 0        ; tid list base offset
    li  r11, 1        ; arg value = 1, 2, 3
    la  r12, tids
tloop:
    la  r1, worker
    li  r2, 0         ; kernel allocates the stack
    mov r3, r11       ; arg
    li  r4, 0         ; no AMS demand
    li  r0, 7         ; thread_create
    syscall
    std r0, [r12]
    addi r12, r12, 8
    addi r11, r11, 1
    li  r9, 4
    bne r11, r9, tloop
    ; join all three
    la  r12, tids
    li  r11, 0
jloop:
    ldd r1, [r12]
    li  r0, 8         ; thread_join
    syscall
    addi r12, r12, 8
    addi r11, r11, 1
    li  r9, 3
    bne r11, r9, jloop
    la  r6, cell
    ldd r1, [r6]
    li  r0, 1
    syscall
worker:
    ; r1 = arg; atomically add into cell, then thread_exit(arg)
    la  r6, cell
    aadd r7, r6, r1
    li  r0, 2         ; thread_exit
    syscall
.data
cell: .u64 0
tids: .u64 0, 0, 0
`

func TestThreadsCreateJoin(t *testing.T) {
	for _, top := range []core.Topology{{0}, {0, 0, 0, 0}} {
		k, m := newKernelT(t, testCfg(top))
		p, _ := k.Spawn("threads", asm.MustAssemble(threadsProg))
		runK(t, k, m)
		if p.ExitCode != 6 {
			t.Fatalf("top %v: exit = %d, want 6", top, p.ExitCode)
		}
	}
}

func TestYieldSyscall(t *testing.T) {
	// Two single-threaded processes ping-pong via yield; both finish.
	k, m := newKernelT(t, testCfg(core.Topology{0}))
	prog := asm.MustAssemble(`
main:
    li r10, 50
loop:
    li r0, 5      ; yield
    syscall
    addi r10, r10, -1
    li r9, 0
    bne r10, r9, loop
    li r0, 1
    li r1, 9
    syscall
`)
	pa, _ := k.Spawn("a", prog)
	pb, _ := k.Spawn("b", prog)
	runK(t, k, m)
	if pa.ExitCode != 9 || pb.ExitCode != 9 {
		t.Fatal("yield processes did not finish")
	}
	if k.Stats.Switches < 50 {
		t.Fatalf("switches = %d, want many from yields", k.Stats.Switches)
	}
}

func TestSleepSyscall(t *testing.T) {
	k, m := newKernelT(t, testCfg(core.Topology{0}))
	p, _ := k.Spawn("sleeper", asm.MustAssemble(`
main:
    li r0, 6       ; clock
    syscall
    mov r10, r0
    li r1, 100000  ; sleep 100k cycles
    li r0, 12
    syscall
    li r0, 6
    syscall
    sub r1, r0, r10
    li r2, 100000
    sltu r1, r1, r2   ; 1 if slept less than requested (bad)
    li r0, 1
    syscall
`))
	runK(t, k, m)
	if p.ExitCode != 0 {
		t.Fatal("sleep returned too early")
	}
}

// shreddedProg runs one shred on AMS 1 doing iters increments while the
// main thread waits; exits with the counter value (mod 2^8 via andi? no
// — full value as exit code).
const shreddedProg = `
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
    la  r6, counter
    ldd r1, [r6]
    li  r0, 1
    syscall
proxy_handler:
    proxyexec r1
    sret
shred:
    li  r10, 120000
    la  r6, counter
sloop:
    ldd r7, [r6]
    addi r7, r7, 1
    std r7, [r6]
    addi r10, r10, -1
    li  r9, 0
    bne r10, r9, sloop
    li  r8, 1
    la  r4, flag
    std r8, [r4]
park:
    pause
    j park
.data
flag:    .u64 0
counter: .u64 0
`

func TestShreddedThreadSurvivesContextSwitch(t *testing.T) {
	// One MISP processor (1 OMS + 1 AMS). A shredded process competes
	// with a plain spinner: the shredded thread is context-switched
	// repeatedly, so its AMS state is saved/restored across switches
	// (§2.2 cumulative context). The shred's result must be exact.
	k, m := newKernelT(t, testCfg(core.Topology{1}))
	ps, _ := k.Spawn("shredded", asm.MustAssemble(shreddedProg))
	pl, _ := k.Spawn("load", asm.MustAssemble(spinProg))
	runK(t, k, m)
	if !ps.Exited || !pl.Exited {
		t.Fatal("not all processes exited")
	}
	if ps.ExitCode != 120000 {
		t.Fatalf("shred counter = %d, want 120000 (AMS state lost across switch?)", ps.ExitCode)
	}
	if k.Stats.Switches < 3 {
		t.Fatalf("switches = %d, want several", k.Stats.Switches)
	}
	ams := m.Procs[0].Seqs[1]
	if ams.C.RingStall == 0 {
		t.Fatal("AMS recorded no ring stall despite competing load")
	}
}

func TestShreddedDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		k, m := newKernelT(t, testCfg(core.Topology{1}))
		ps, _ := k.Spawn("shredded", asm.MustAssemble(shreddedProg))
		pl, _ := k.Spawn("load", asm.MustAssemble(spinProg))
		runK(t, k, m)
		return ps.ExitTime, pl.ExitTime
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("nondeterministic kernel: (%d,%d) vs (%d,%d)", a1, b1, a2, b2)
	}
}

func TestAMSDemandPlacement(t *testing.T) {
	// Topology {3, 0}: processor 0 has 3 AMSs, processor 1 none. A
	// thread that sets AMS demand 1 and yields must end up on processor
	// 0 even if it starts on processor 1.
	k, m := newKernelT(t, testCfg(core.Topology{3, 0}))
	p, _ := k.Spawn("needy", asm.MustAssemble(`
main:
    seqid r10, 3        ; AMS count of current processor... via imm
    li r0, 11           ; set_ams_demand(1)
    li r1, 1
    syscall
migrate:
    seqid r10, 3
    li r9, 0
    bne r10, r9, landed
    li r0, 5            ; yield until placed on an AMS-bearing processor
    syscall
    j migrate
landed:
    mov r1, r10
    li r0, 1
    syscall
`))
	// Occupy processor 0 briefly so the needy thread may start on 1.
	k.Spawn("filler", asm.MustAssemble(spinProg))
	runK(t, k, m)
	if p.ExitCode < 1 {
		t.Fatalf("thread never landed on an AMS-bearing processor (exit %d)", p.ExitCode)
	}
}

func TestTopologySyscall(t *testing.T) {
	k, m := newKernelT(t, testCfg(core.Topology{3, 0}))
	p, _ := k.Spawn("topo", asm.MustAssemble(`
main:
    li r1, 0x08000000
    li r0, 13        ; topology
    syscall
    mov r10, r0      ; nproc
    li r1, 0x08000000
    ldd r2, [r1+8]   ; AMS count of proc 0
    muli r10, r10, 10
    add r1, r10, r2  ; 10*nproc + ams0 = 23
    li r0, 1
    syscall
`))
	runK(t, k, m)
	if p.ExitCode != 23 {
		t.Fatalf("topology = %d, want 23", p.ExitCode)
	}
}

func TestSegfaultKillsProcessFatally(t *testing.T) {
	k, m := newKernelT(t, testCfg(core.Topology{0}))
	k.Spawn("bad", asm.MustAssemble(`
main:
    li r1, 64
    ldd r2, [r1]
    li r0, 1
    syscall
`))
	if err := m.Run(); err != nil {
		t.Fatalf("machine error: %v", err)
	}
	if k.Err() == nil {
		t.Fatal("segfault not recorded as fatal")
	}
}

func TestStopPredicate(t *testing.T) {
	// A never-ending process plus a finite one: stop when the finite one
	// exits (the fig-7 multiprogramming pattern).
	k, m := newKernelT(t, testCfg(core.Topology{0, 0}))
	forever, _ := k.Spawn("forever", asm.MustAssemble(`
main:
    j main
`))
	fin, _ := k.Spawn("fin", asm.MustAssemble(spinProg))
	k.StopPredicate = func() bool { return fin.Exited }
	runK(t, k, m)
	if !fin.Exited {
		t.Fatal("finite process did not exit")
	}
	if forever.Exited {
		t.Fatal("infinite process exited?")
	}
}
