package kernel

import (
	"fmt"

	"misp/internal/asm"
	"misp/internal/core"
	"misp/internal/mem"
	"misp/internal/snap/wire"
)

// Snapshot codec for the kernel. The kernel is a pointer graph —
// processes own threads, threads point back at processes and at each
// other (joiners), run queues hold ordered thread references — so the
// encoding flattens every reference to its stable ID (PID, TID,
// sequencer global ID) and the decoder rebuilds the graph: thread lists
// that can name threads not yet decoded resolve once all of them exist.
// Map iteration is never encoded directly: every map is walked in
// sorted key order so identical kernels produce identical bytes.
//
// The program image is embedded per process, which makes a snapshot
// self-contained: a restore in a different host process (mispsim
// -restore) needs no access to the original workload builder. VMA
// backing slices that alias the program image are stored as tags, not
// copies.
//
// NOT captured: StopPredicate (a host closure — Capture refuses while
// one is set) and the pre-resolved metric handles (newKernel resolves
// them against the restored machine's registry).

// EncodeSnapshot writes the complete kernel state. The kernel must be
// healthy (no latched fatal error) and must not carry a StopPredicate,
// which is a host closure the codec cannot represent.
func (k *Kernel) EncodeSnapshot(c *wire.Codec) error {
	if k.fatal != nil {
		return fmt.Errorf("kernel: cannot snapshot with a fatal error latched: %v", k.fatal)
	}
	if k.StopPredicate != nil {
		return fmt.Errorf("kernel: cannot snapshot with a StopPredicate attached")
	}
	k.snapshot(c)
	return nil
}

// RestoreSnapshot rebuilds a kernel from its snapshot and attaches it
// to m (which must itself be a machine restored from the same
// snapshot — sequencer CurTID fields and save areas reference the
// decoded threads and spaces). Timers are NOT re-armed: deadlines live
// in the machine state.
func RestoreSnapshot(m *core.Machine, c *wire.Codec) (*Kernel, error) {
	k := newKernel(m)
	k.snapshot(c)
	if err := c.Err(); err != nil {
		return nil, err
	}
	m.SetOS(k)
	return k, nil
}

// snapshot codes the kernel: counters, then processes and threads in ID
// order, the run queues in FIFO order (it is scheduling-relevant), and
// the health check's state.
func (k *Kernel) snapshot(c *wire.Codec) {
	c.Int(&k.nextPID)
	c.Int(&k.nextTID)
	c.Int(&k.live)
	c.Bool(&k.DynamicAMSBinding)
	st := &k.Stats
	for _, p := range []*uint64{
		&st.Ticks, &st.Switches, &st.Syscalls, &st.PageFaults,
		&st.IPIs, &st.Rebinds, &st.Detected, &st.Recovered,
	} {
		c.U64(p)
	}

	// A process lists its threads by TID, and a thread its joiners; the
	// lists resolve once the thread table has been read.
	members := map[*Process][]int{}
	wire.Map(c, k.Procs, c.Int, func(pid int) {
		p := k.Procs[pid]
		if c.Decoding() {
			if p != nil {
				c.Fail(fmt.Errorf("kernel: snapshot has duplicate PID %d", pid))
				return
			}
			p = &Process{PID: pid, Threads: make(map[int]*Thread)}
			k.Procs[pid] = p
		}
		k.snapshotProcess(c, p)
		wire.Map(c, p.Threads, c.Int, func(tid int) {
			if c.Decoding() {
				members[p] = append(members[p], tid)
			}
		})
	})

	joiners := map[*Thread][]int{}
	wire.Map(c, k.Threads, c.Int, func(tid int) {
		t := k.Threads[tid]
		if c.Decoding() {
			if t != nil {
				c.Fail(fmt.Errorf("kernel: snapshot has duplicate TID %d", tid))
				return
			}
			t = &Thread{TID: tid}
			k.Threads[tid] = t
		}
		k.snapshotThread(c, t)
		js := tids(t.joiners)
		wire.Slice(c, &js, c.Int)
		if c.Decoding() {
			joiners[t] = js
		}
	})
	for t, js := range joiners {
		t.joiners = k.threadRefs(c, js)
	}
	for p, ts := range members {
		for _, t := range k.threadRefs(c, ts) {
			p.Threads[t.TID] = t
		}
	}

	for _, q := range []*[]*Thread{&k.ready, &k.sleeping} {
		ids := tids(*q)
		wire.Slice(c, &ids, c.Int)
		if c.Decoding() {
			*q = k.threadRefs(c, ids)
		}
	}

	for _, set := range []map[int]bool{k.seenDead, k.latched} {
		wire.Map(c, set, c.Int, func(id int) {
			if c.Decoding() {
				set[id] = true
			}
		})
	}
	wire.Map(c, k.backlog, c.Int, func(pid int) {
		q := k.backlog[pid]
		wire.Slice(c, &q, func(e *qentry) {
			c.U64(&e.ip)
			c.U64(&e.sp)
		})
		if c.Decoding() {
			k.backlog[pid] = q
		}
	})
}

// snapshotProcess codes a process after its PID.
func (k *Kernel) snapshotProcess(c *wire.Codec, p *Process) {
	c.String(&p.Name)
	if c.Decoding() {
		p.Prog = &asm.Program{Symbols: make(map[string]uint64)}
	}
	snapshotProgram(c, p.Prog)
	p.Space = mem.SnapshotSpace(c, p.Space, k.M.Phys, func(v *mem.VMA) { snapshotBacking(c, v, p.Prog) })
	c.U64(&p.Brk)
	c.Int(&p.Live)
	c.Bool(&p.Exited)
	c.U64(&p.ExitCode)
	c.U64(&p.StartTime)
	c.U64(&p.ExitTime)
	out := p.Out.Bytes()
	c.Blob(&out)
	if c.Decoding() {
		p.Out.Write(out)
	}
	c.Int(&p.nextStack)
}

// snapshotThread codes a thread after its TID, up to its joiners.
func (k *Kernel) snapshotThread(c *wire.Codec, t *Thread) {
	var pid int
	if t.Proc != nil {
		pid = t.Proc.PID
	}
	c.Int(&pid)
	if c.Decoding() {
		if t.Proc = k.Procs[pid]; t.Proc == nil {
			c.Fail(fmt.Errorf("kernel: snapshot thread %d references unknown PID %d", t.TID, pid))
		}
	}
	wire.Enum(c, &t.State)
	t.OMSState.Snapshot(c)
	wire.Slice(c, &t.AMSStates, func(st *core.ThreadSeqState) { st.Snapshot(c) })
	c.Int(&t.AMSDemand)
	c.Int(&t.HomeProc)
	c.Int(&t.QuantumLeft)
	c.U64(&t.ExitStatus)
	c.U64(&t.WakeAt)
}

// tids flattens a thread list to its TIDs.
func tids(ts []*Thread) []int {
	out := make([]int, len(ts))
	for i, t := range ts {
		out[i] = t.TID
	}
	return out
}

// threadRefs resolves decoded TIDs to threads.
func (k *Kernel) threadRefs(c *wire.Codec, ids []int) []*Thread {
	var ts []*Thread
	for _, tid := range ids {
		t := k.Threads[tid]
		if t == nil {
			c.Fail(fmt.Errorf("kernel: snapshot references unknown TID %d", tid))
			return nil
		}
		ts = append(ts, t)
	}
	return ts
}

// snapshotProgram codes a program image, its symbol table in name order.
func snapshotProgram(c *wire.Codec, p *asm.Program) {
	c.U64(&p.TextBase)
	c.U64(&p.DataBase)
	c.Blob(&p.Text)
	c.Blob(&p.Data)
	c.U64(&p.BSS)
	c.U64(&p.Entry)
	wire.Map(c, p.Symbols, c.String, func(name string) {
		v := p.Symbols[name]
		c.U64(&v)
		if c.Decoding() {
			p.Symbols[name] = v
		}
	})
}

// VMA backing tags: the backing slice is either absent, an alias of the
// program image (stored by reference), or an inline copy.
const (
	backingNil uint8 = iota
	backingText
	backingData
	backingBlob
)

// aliases reports whether b is a prefix view into image's storage.
func aliases(b, image []byte) bool {
	return len(image) > 0 && len(b) > 0 && len(b) <= len(image) && &b[0] == &image[0]
}

// backingTag classifies v's backing slice for the encoder.
func backingTag(v *mem.VMA, prog *asm.Program) uint8 {
	switch {
	case v.Backing == nil:
		return backingNil
	case aliases(v.Backing, prog.Text):
		return backingText
	case aliases(v.Backing, prog.Data):
		return backingData
	}
	return backingBlob
}

// snapshotBacking codes a VMA's backing slice as its tag, then, for an
// alias of the program image, its length, or for a copy, its bytes.
func snapshotBacking(c *wire.Codec, v *mem.VMA, prog *asm.Program) {
	var tag uint8
	if !c.Decoding() {
		tag = backingTag(v, prog)
	}
	c.U8(&tag)
	switch tag {
	case backingNil:
	case backingText, backingData:
		image := prog.Text
		if tag == backingData {
			image = prog.Data
		}
		n := uint64(len(v.Backing))
		c.U64(&n)
		if c.Decoding() {
			if n == 0 || n > uint64(len(image)) {
				c.Fail(fmt.Errorf("kernel: snapshot VMA %q backing length %d exceeds image", v.Name, n))
				return
			}
			v.Backing = image[:n]
		}
	case backingBlob:
		c.Blob(&v.Backing)
	default:
		c.Fail(fmt.Errorf("kernel: snapshot VMA %q has unknown backing tag %d", v.Name, tag))
	}
}
