// Package shredlib emits the user-level multi-shredding runtime of the
// paper's §3–4 — ShredLib — as SVM-32 assembly. The runtime implements
// the M:N work-queue gang scheduler of Figure 3: shred continuations
// (IP, SP pairs) live in a mutex-protected shared-memory queue; gang
// scheduler loops run concurrently on the OMS and on every AMS
// (started with SIGNAL) and contend for the queue; the canonical proxy
// handler is registered with YIELD-CONDITIONAL and services every
// proxy condition with a single PROXYEXEC.
//
// The same package also emits "threadlib": an implementation of the
// identical runtime API on OS threads, used for the paper's SMP
// baseline. A workload program calls only rt_* symbols, so switching a
// workload between MISP shreds and OS threads is a link-time choice —
// the reproduction of the paper's claim that porting is "include one
// header and recompile" (§5.5).
package shredlib

import (
	"fmt"

	"misp/internal/shredlib/arena"
)

// Mode selects which runtime Emit generates.
type Mode int

const (
	// ModeShred is ShredLib proper: gang scheduling on MISP sequencers.
	ModeShred Mode = iota
	// ModeThread is threadlib: the same API on OS threads (SMP baseline).
	ModeThread
)

func (m Mode) String() string {
	if m == ModeThread {
		return "threadlib"
	}
	return "shredlib"
}

// ParseMode reads a runtime mode as the command line and the service
// name it: "shred" or "thread".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "shred":
		return ModeShred, nil
	case "thread":
		return ModeThread, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want shred or thread)", s)
}

// Runtime arena layout. The authoritative constants live in the leaf
// package internal/shredlib/arena so the kernel's AMS failure recovery
// can share them without importing the emitter; the aliases below keep
// the emitter code and its tests reading naturally.
const (
	// RTBase is the runtime control block.
	RTBase = arena.RTBase

	offQLock     = arena.OffQLock
	offQHead     = arena.OffQHead
	offQTail     = arena.OffQTail
	offCreated   = arena.OffCreated
	offDone      = arena.OffDone
	offDoneFlag  = arena.OffDoneFlag
	offStackNext = arena.OffStackNext
	offFlags     = arena.OffFlags
	offSLock     = arena.OffSLock
	offSFreeTop  = arena.OffSFreeTop
	offTLSNext   = arena.OffTLSNext
	offHNext     = arena.OffHNext
	offClaimed   = arena.OffClaimed
	offStarted   = arena.OffStarted

	// QueueBase is the continuation ring buffer: QCap entries of
	// (IP, SP), 16 bytes each.
	QueueBase = arena.QueueBase
	QCap      = arena.QCap

	// SFreeBase is the stack freelist array (stack base addresses).
	SFreeBase = arena.SFreeBase

	// TLSBase holds 64 bytes of per-sequencer runtime state, indexed by
	// global sequencer ID.
	TLSBase = arena.TLSBase

	tlsSchedSP  = arena.TLSSchedSP
	tlsLoopTop  = arena.TLSLoopTop
	tlsFreePend = arena.TLSFreePend
	tlsIdleSpin = arena.TLSIdleSpin
	tlsJoinFlag = arena.TLSJoinFlag
	tlsUser     = arena.TLSUser
	tlsSlots    = arena.TLSSlots

	// yieldSpinThreshold is how many empty-queue iterations an
	// OS-visible gang scheduler spins before yielding to the OS when
	// FlagYieldOnIdle is set (OpenMP-runtime-style spin-then-yield; an
	// immediate yield would serialize the AMSs through the ring
	// transitions of the yield system call itself).
	yieldSpinThreshold = 2048

	// TopoBuf receives the SysTopology result.
	TopoBuf = arena.TopoBuf

	// HandlesBase is the shred handle table used by the POSIX veneer
	// (pthread_create/pthread_join): HandleCap entries of
	// [done flag, return value], 16 bytes each.
	HandlesBase = arena.HandlesBase
	HandleCap   = arena.HandleCap

	// ScratchBase is free for workload use (locks, barriers, results).
	ScratchBase = arena.ScratchBase

	// ArenaUsedEnd bounds the region rt_init prefaults.
	ArenaUsedEnd = arena.ArenaUsedEnd
)

// Runtime flag bits (rt_init argument).
const (
	// FlagYieldOnIdle makes gang schedulers running on OS-visible
	// sequencers issue a yield system call while the work queue is
	// empty, emulating the OS interaction of an OpenMP-style runtime
	// (the source of the SPEComp applications' large OMS syscall counts
	// in Table 1).
	FlagYieldOnIdle = 1 << 0

	// FlagProbePages makes rt_init probe every page of the data segment
	// from the serial region before any shred runs — the §5.3
	// optimization ("if the OMS probes each page ... the number of
	// proxy execution events for page faults can be significantly
	// reduced"). Used by the A2 ablation.
	FlagProbePages = 1 << 1

	// FlagNoMP confines ShredLib to the main thread's MISP processor:
	// rt_init does not spawn worker threads for other AMS-bearing
	// processors. Used by the A4 dynamic-binding ablation, where the
	// kernel — not the runtime — grows the processor by rebinding AMSs,
	// and the gang scheduler starts workers on them as they arrive.
	FlagNoMP = 1 << 2
)

// ResultAddr is where workloads store their checksum for host-side
// validation (first scratch word).
const ResultAddr = arena.ResultAddr
