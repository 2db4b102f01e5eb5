package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"misp/internal/asm"
)

// spinProg starts one spinning shred on each of nAMS AMSs and then spins
// on the OMS too: every sequencer runs the same two-instruction loop on
// one code page, with no syscalls, stores or page changes — the pure
// lockstep regime, which never hands the cohort wave an outside reason
// to stop before the cycle limit does.
func spinProg(nAMS int) *asm.Program {
	var b strings.Builder
	b.WriteString("main:\n")
	for sid := 1; sid <= nAMS; sid++ {
		fmt.Fprintf(&b, "    li r1, %d\n    la r2, spin\n    li r3, 0x%x\n    signal r1, r2, r3\n",
			sid, asm.StackPoolBase+(sid+1)*2*asm.StackSize)
	}
	b.WriteString("spin:\n    li r10, 0\n    li r11, 0x7fffffffffff\nloop:\n    addi r10, r10, 1\n    blt r10, r11, loop\npark:\n    j park\n")
	return asm.MustAssemble(b.String())
}

// spinMachine builds a machine spinning on every sequencer of top.
// BareOS starts processor 0 only; the OMSs of further processors
// (thread-mode SMP) are started by hand at the loop's entry.
func spinMachine(t *testing.T, top Topology, maxCycles uint64) *Machine {
	t.Helper()
	cfg := DefaultConfig(top)
	cfg.PhysMem = 32 << 20
	cfg.MaxCycles = maxCycles
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := spinProg(top[0])
	if _, err := LoadBare(m, p); err != nil {
		t.Fatal(err)
	}
	for _, proc := range m.Procs[1:] {
		s := proc.OMS()
		s.PC = p.MustSymbol("spin")
		s.State = StateRunning
	}
	return m
}

var cancelTops = []Topology{{7}, {0, 0, 0, 0, 0, 0, 0, 0}, {0}}

// TestCancelLatencyBound: a context canceled while the machine sits
// paused in the lockstep regime stops the resumed Run within one pop of
// the cohort wave — at most waveRunAhead micro-ops of one member.
func TestCancelLatencyBound(t *testing.T) {
	for _, top := range cancelTops {
		m := spinMachine(t, top, 1<<40)
		ctx, cancel := context.WithCancel(context.Background())
		m.SetContext(ctx)
		m.SetPause(200_000)
		if err := m.Run(); !errors.Is(err, ErrPaused) {
			t.Fatalf("%v: first leg: %v, want ErrPaused", top, err)
		}
		before := m.Steps
		cancel()
		m.SetPause(0)
		err := m.Run()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: resumed run: %v, want context.Canceled", top, err)
		}
		if d := m.Steps - before; d > waveRunAhead {
			t.Errorf("%v: %d instructions retired after the cancel, want <= %d", top, d, waveRunAhead)
		}
		m.Release()
	}
}

// TestWavePauseBoundary: the wave's folded stop threshold hands back at
// exactly the pause boundary the general path enforces. Every spin-loop
// instruction costs one cycle, so a pause at cycle P must leave each
// sequencer having committed its instruction at clock P and none at P+1.
func TestWavePauseBoundary(t *testing.T) {
	for _, top := range cancelTops {
		m := spinMachine(t, top, 1<<40)
		for _, pause := range []uint64{200_000, 200_001, 200_050} {
			m.SetPause(pause)
			if err := m.Run(); !errors.Is(err, ErrPaused) {
				t.Fatalf("%v: pause %d: %v, want ErrPaused", top, pause, err)
			}
			for _, s := range m.Seqs {
				if s.Clock != pause+1 {
					t.Errorf("%v: pause %d: %s stopped at clock %d, want %d", top, pause, s.Name(), s.Clock, pause+1)
				}
			}
		}
		m.Release()
	}
}

// TestCancelInsideWave cancels from another goroutine while Run is deep
// in the lockstep regime. The wave must hand the cancel to the selection
// loop: swallowing it (re-entering the wave on "progress") would run the
// program on to its cycle limit, 40M instructions (hundreds of host
// milliseconds) away, and fail with that diagnosis instead.
func TestCancelInsideWave(t *testing.T) {
	for _, top := range cancelTops {
		m := spinMachine(t, top, 40_000_000/uint64(top.Seqs()))
		ctx, cancel := context.WithCancel(context.Background())
		m.SetContext(ctx)
		m.SetPause(200_000)
		if err := m.Run(); !errors.Is(err, ErrPaused) {
			t.Fatalf("%v: first leg: %v, want ErrPaused", top, err)
		}
		m.SetPause(0)
		timer := time.AfterFunc(2*time.Millisecond, cancel)
		err := m.Run()
		timer.Stop()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: run canceled mid-wave returned %v after %d instructions, want context.Canceled",
				top, err, m.Steps)
		}
		m.Release()
	}
}

// hookCtx is a cancelable context that is not one of the context
// package's own, so context.AfterFunc goes through its AfterFunc hook:
// it counts live registrations (made minus stopped).
type hookCtx struct {
	done chan struct{}
	mu   sync.Mutex
	live int
}

func (c *hookCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *hookCtx) Done() <-chan struct{}       { return c.done }
func (c *hookCtx) Err() error                  { return nil }
func (c *hookCtx) Value(any) any               { return nil }

func (c *hookCtx) AfterFunc(func()) func() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.live++
	stopped := false
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		if stopped {
			return false
		}
		stopped = true
		c.live--
		return true
	}
}

func (c *hookCtx) registrations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live
}

// TestSetContextUnregisters: one process-lifetime context attached to
// many machines must not accumulate AfterFunc registrations — Release
// and a second SetContext both stop the previous one — and a background
// context registers nothing.
func TestSetContextUnregisters(t *testing.T) {
	ctx := &hookCtx{done: make(chan struct{})}
	p := asm.MustAssemble("main:\n    li r1, 7\n    li r0, 1\n    syscall\n")
	for i := 0; i < 100; i++ {
		m, err := New(testCfg(1))
		if err != nil {
			t.Fatal(err)
		}
		b, err := LoadBare(m, p)
		if err != nil {
			t.Fatal(err)
		}
		m.SetContext(ctx)
		if err := m.Run(); err != nil || b.ExitCode != 7 {
			t.Fatalf("run %d: err %v exit %d", i, err, b.ExitCode)
		}
		if n := ctx.registrations(); n != 1 {
			t.Fatalf("run %d: %d live registrations while attached, want 1", i, n)
		}
		m.Release()
	}
	if n := ctx.registrations(); n != 0 {
		t.Fatalf("%d registrations left after 100 prepare/run/release cycles", n)
	}

	m, err := New(testCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	m.SetContext(ctx)
	m.SetContext(ctx)
	if n := ctx.registrations(); n != 1 {
		t.Fatalf("%d registrations after re-attaching, want 1", n)
	}
	m.SetContext(context.Background())
	if n := ctx.registrations(); n != 0 || m.cancelFlag != nil {
		t.Fatalf("background context: %d registrations, flag %v; want none", n, m.cancelFlag)
	}
}

// TestContextDoesNotPinMachine: the AfterFunc callback captures only the
// flag, so a live cancelable context never keeps an abandoned (never
// released) machine reachable.
func TestContextDoesNotPinMachine(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	collected := make(chan struct{})
	func() {
		m, err := New(testCfg(1))
		if err != nil {
			t.Fatal(err)
		}
		m.SetContext(ctx)
		runtime.SetFinalizer(m, func(*Machine) { close(collected) })
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("machine still reachable through its context after 20 GCs")
}
