package fault

import (
	"fmt"
	"strings"

	"misp/internal/obs"
)

// Diagnosis reasons.
const (
	ReasonDeadlock    = "deadlock"
	ReasonCycleLimit  = "cycle-limit"
	ReasonLivelock    = "livelock"
	ReasonKernel      = "kernel-fault"
	ReasonCorruption  = "silent-corruption"
	ReasonCycleLedger = "cycle-ledger"
)

// SeqDiag is one sequencer's state at diagnosis time.
type SeqDiag struct {
	ID         int
	Name       string
	State      string
	Ring       int
	PC         uint64
	Clock      uint64
	InHandler  bool
	InProxy    bool
	Pending    int    // queued ingress signals
	ProxyFrame uint64 // save-area VA while wait-proxy (0 otherwise)
	CurTID     int
	NextEvent  uint64 // next self-wake time (valid when HasEvent)
	HasEvent   bool
}

// ProxyDiag is one undelivered proxy request.
type ProxyDiag struct {
	Proc    int
	AMS     int
	TS      uint64
	FrameVA uint64
}

// Diagnosis is the structured post-mortem the machine produces instead
// of a one-line error when a run deadlocks, livelocks, exhausts its
// cycle budget, or is found silently corrupted. It wraps the original
// error (errors.Is/As reach it through Unwrap) and renders the full
// machine state: per-sequencer IP/ring/state, the event-queue view,
// pending signals and proxies, the injection schedule so far, and the
// last few obs events.
type Diagnosis struct {
	Reason string
	Cycle  uint64 // machine wall clock (max sequencer clock)
	Instrs uint64 // total retired instructions

	Seqs    []SeqDiag
	Proxies []ProxyDiag

	// Log is the fault plan's injection schedule so far (nil when no
	// plan was attached).
	Log []Record

	// Events is the tail of the obs event stream (up to DiagEventTail
	// entries; empty when event tracing was off).
	Events []obs.Event

	// Err is the underlying one-line error this diagnosis upgrades.
	Err error
}

// DiagEventTail bounds how many trailing obs events a Diagnosis keeps.
const DiagEventTail = 16

func (d *Diagnosis) Unwrap() error { return d.Err }

func (d *Diagnosis) Error() string {
	var b strings.Builder
	if d.Err != nil {
		b.WriteString(d.Err.Error())
	} else {
		fmt.Fprintf(&b, "fault: %s", d.Reason)
	}
	fmt.Fprintf(&b, "\n  diagnosis: reason=%s cycle=%d instrs=%d injections=%d",
		d.Reason, d.Cycle, d.Instrs, len(d.Log))
	for _, s := range d.Seqs {
		fmt.Fprintf(&b, "\n  %-8s state=%-12s ring=%d pc=0x%x clock=%d pending=%d",
			s.Name, s.State, s.Ring, s.PC, s.Clock, s.Pending)
		if s.InHandler {
			b.WriteString(" in-handler")
		}
		if s.InProxy {
			b.WriteString(" in-proxy")
		}
		if s.ProxyFrame != 0 {
			fmt.Fprintf(&b, " proxy-frame=0x%x", s.ProxyFrame)
		}
		if s.CurTID != 0 {
			fmt.Fprintf(&b, " tid=%d", s.CurTID)
		}
		if s.HasEvent {
			fmt.Fprintf(&b, " next-event=%d", s.NextEvent)
		}
	}
	for _, p := range d.Proxies {
		fmt.Fprintf(&b, "\n  pending proxy: proc=%d ams=%d ts=%d frame=0x%x",
			p.Proc, p.AMS, p.TS, p.FrameVA)
	}
	if len(d.Log) > 0 {
		b.WriteString("\n  injections:")
		log := d.Log
		if len(log) > DiagEventTail {
			fmt.Fprintf(&b, " (%d earlier omitted)", len(log)-DiagEventTail)
			log = log[len(log)-DiagEventTail:]
		}
		for _, r := range log {
			fmt.Fprintf(&b, "\n    %s", r)
		}
	}
	if len(d.Events) > 0 {
		b.WriteString("\n  recent events:")
		for _, e := range d.Events {
			fmt.Fprintf(&b, "\n    %12d seq%-2d %-14s a=0x%x b=0x%x",
				e.TS, e.Seq, e.Kind, e.A, e.B)
		}
	}
	return b.String()
}
