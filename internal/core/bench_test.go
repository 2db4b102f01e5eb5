package core_test

import (
	"context"
	"errors"
	"testing"

	"misp/internal/asm"
	"misp/internal/core"
	"misp/internal/isa"
	"misp/internal/mem"
	"misp/internal/obs"
	"misp/internal/shredlib"
	"misp/internal/workloads"
)

// benchRun times Prepared.RunCtx alone (prepare and release sit outside
// the timer) and reports host nanoseconds per retired instruction, once
// with a cancelable context attached and once with a background one:
// the two must read the same, cancellation being one flag load per
// selection or wave pop.
func benchRun(b *testing.B, top core.Topology, mode shredlib.Mode) {
	cancelable, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.Run("ctx=cancelable", func(b *testing.B) { benchRunCtx(b, cancelable, top, mode) })
	b.Run("ctx=background", func(b *testing.B) { benchRunCtx(b, context.Background(), top, mode) })
}

func benchRunCtx(b *testing.B, ctx context.Context, top core.Topology, mode shredlib.Mode) {
	w, err := workloads.ByName("dense_mmm")
	if err != nil {
		b.Fatal(err)
	}
	var instrs uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pr, err := workloads.Prepare(w, mode, workloads.DefaultConfig(top), workloads.SizeSmall)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := pr.RunCtx(ctx)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Machine.Steps
		res.Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}

// BenchmarkCohortWave runs dense_mmm where runCohortWave retires nearly
// every instruction: eight lockstep shreds on one MISP processor, and
// eight OS threads on an 8-way SMP. There the eight members execute one
// loop in a fixed phase, which is the wave's easy case; desync is the
// hard one. misp1x24 is the same program with 24 members in the wave: the
// per-pop min scan is the one cost that grows with the cohort. idle is the
// gang scheduler's idle regime, where most retirements are spin-loop
// iterations the wave fast-forwards.
func BenchmarkCohortWave(b *testing.B) {
	b.Run("misp1x8", func(b *testing.B) { benchRun(b, core.Topology{7}, shredlib.ModeShred) })
	b.Run("misp1x24/ctx=background", func(b *testing.B) {
		benchRunCtx(b, context.Background(), core.Topology{23}, shredlib.ModeShred)
	})
	b.Run("smp8", func(b *testing.B) {
		benchRun(b, core.Topology{0, 0, 0, 0, 0, 0, 0, 0}, shredlib.ModeThread)
	})
	b.Run("desync", func(b *testing.B) {
		for _, ops := range []string{"alu", "mem", "shared"} {
			b.Run("loops=same/"+ops, func(b *testing.B) { benchDesync(b, false, ops) })
			b.Run("loops=distinct/"+ops, func(b *testing.B) { benchDesync(b, true, ops) })
		}
		b.Run("loops=distinct/exit", func(b *testing.B) { benchDesync(b, true, "exit") })
	})
	b.Run("idle", benchIdle)
}

// benchIdle times the wave on a bare machine of eight ring-0 sequencers
// where one member works — an ALU loop that stores to its own word — and
// the other seven are parked in the runtime's park loop (shredlib's
// emitSchedLoop once the shreds are done): pause, and jump back to it.
// Every parked iteration repeats the last, so the wave skips them
// (superblock.go, invariant 5). Beside ns/instr it reports the share of
// retirements the skips made.
func benchIdle(b *testing.B) {
	const (
		seqs   = 8
		code   = asm.HeapBase
		park   = code + 64*isa.WordSize
		data   = asm.HeapBase + mem.PageSize
		cycles = 1 << 20
	)
	work := []isa.Instr{
		{Op: isa.OpAdd, Rd: 1, Rs1: 1, Rs2: 2}, {Op: isa.OpXori, Rd: 3, Rs1: 1, Imm: 0x55},
		{Op: isa.OpMul, Rd: 4, Rs1: 3, Rs2: 2}, {Op: isa.OpStd, Rd: 4, Rs1: 11},
		{Op: isa.OpSub, Rd: 5, Rs1: 4, Rs2: 1}, {Op: isa.OpAddi, Rd: 2, Rs1: 2, Imm: 1},
		{Op: isa.OpJmp, Imm: -6 * isa.WordSize},
	}
	parked := []isa.Instr{{Op: isa.OpPause}, {Op: isa.OpJmp, Imm: -isa.WordSize}}
	var instrs, skipped uint64
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		cfg := core.DefaultConfig(core.Topology{seqs - 1})
		cfg.PhysMem = 4 << 20
		m, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		os, err := core.LoadBare(m, asm.MustAssemble("main:\n    li r0, 1\n    syscall\n"))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := os.Space.Prefault(code, 2*mem.PageSize); err != nil {
			b.Fatal(err)
		}
		for k, in := range work {
			if err := os.Space.WriteU64(code+uint64(k)*isa.WordSize, in.Encode()); err != nil {
				b.Fatal(err)
			}
		}
		for k, in := range parked {
			if err := os.Space.WriteU64(park+uint64(k)*isa.WordSize, in.Encode()); err != nil {
				b.Fatal(err)
			}
		}
		for i, s := range m.Seqs {
			s.PC, s.Ring, s.State = park, isa.Ring0, core.StateRunning
			if i == 0 {
				s.PC = code
			}
			s.Regs[1], s.Regs[2], s.Regs[11] = uint64(i+1), 3, data+64
		}
		m.SetPause(cycles)
		b.StartTimer()
		err = m.Run()
		b.StopTimer()
		if !errors.Is(err, core.ErrPaused) {
			b.Fatal(err)
		}
		if err := m.FinalizeMetrics(); err != nil {
			b.Fatal(err)
		}
		instrs += m.Steps
		skipped += m.Obs.Metrics.CounterValue(obs.MSBSpinInstrs)
		m.Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
	b.ReportMetric(float64(skipped)/float64(instrs), "skipped/instr")
}

// benchDesync times the wave on a bare machine whose eight ring-0
// sequencers each spin on a loop over one opcode mix — the same loop for
// all (the control: the wave's dispatch sees one repeating stream), or
// eight bodies of different lengths, so the commit order interleaves
// eight streams aperiodically. ops "mem" makes every fourth instruction a
// ldd or std to the sequencer's own word: the loads run ahead as TLB hits
// and no store touches what a peer loaded. ops "shared" has every member
// load sequencer 0's word and store to its own once per loop, so each of
// sequencer 0's stores finds a peer's run-ahead load and ends the wave:
// the price of a snoop hit. ops "exit" is "alu" with sequencer 0 on a loop
// whose every 64th instruction is a default-arm word (movfcr), so each of
// them ends the wave and the exit re-makes the seven peers' runs: the
// price of a wave exit. Beside ns/instr each reports the retirements an
// exit takes back.
func benchDesync(b *testing.B, distinct bool, ops string) {
	const (
		seqs     = 8
		loopSlot = 64 // code slots per loop
		code     = asm.HeapBase
		data     = asm.HeapBase + mem.PageSize
		cycles   = 1 << 20
	)
	mix := []isa.Instr{
		{Op: isa.OpAdd, Rd: 1, Rs1: 1, Rs2: 2}, {Op: isa.OpXori, Rd: 3, Rs1: 1, Imm: 0x55},
		{Op: isa.OpMul, Rd: 4, Rs1: 3, Rs2: 2}, {Op: isa.OpSub, Rd: 5, Rs1: 4, Rs2: 1},
		{Op: isa.OpShli, Rd: 6, Rs1: 5, Imm: 3}, {Op: isa.OpFadd, Rd: 1, Rs1: 1, Rs2: 2},
		{Op: isa.OpSltu, Rd: 7, Rs1: 6, Rs2: 1}, {Op: isa.OpAddi, Rd: 2, Rs1: 2, Imm: 1},
	}
	var instrs, exits, takenBack uint64
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		cfg := core.DefaultConfig(core.Topology{seqs - 1})
		cfg.PhysMem = 4 << 20
		m, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		os, err := core.LoadBare(m, asm.MustAssemble("main:\n    li r0, 1\n    syscall\n"))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := os.Space.Prefault(code, 2*mem.PageSize); err != nil {
			b.Fatal(err)
		}
		for i, s := range m.Seqs {
			loop := 0
			if distinct {
				loop = i
			}
			body := 11 + 2*loop
			if ops == "exit" && i == 0 {
				body = loopSlot - 1
			}
			at := code + uint64(loop*loopSlot)*isa.WordSize
			for k := 0; k <= body; k++ {
				in := mix[k%len(mix)]
				switch {
				case k == body:
					in = isa.Instr{Op: isa.OpJmp, Imm: int32(-body * isa.WordSize)}
				case ops == "exit" && i == 0 && k == body-1:
					in = isa.Instr{Op: isa.OpMovfcr, Rd: 9, Imm: int32(isa.CR0)}
				case ops != "alu" && k%8 == 3:
					in = isa.Instr{Op: isa.OpLdd, Rd: 8, Rs1: 10}
				case ops == "mem" && k%8 == 7:
					in = isa.Instr{Op: isa.OpStd, Rd: 5, Rs1: 10}
				case ops == "shared" && k == 7:
					in = isa.Instr{Op: isa.OpStd, Rd: 5, Rs1: 11}
				}
				if err := os.Space.WriteU64(at+uint64(k)*isa.WordSize, in.Encode()); err != nil {
					b.Fatal(err)
				}
			}
			s.PC, s.Ring, s.State = at, isa.Ring0, core.StateRunning
			own := data + uint64(i)*64
			s.Regs[1], s.Regs[2], s.Regs[10], s.Regs[11] = uint64(i+1), 3, own, own
			if ops == "shared" {
				s.Regs[10] = data // sequencer 0's own word
			}
		}
		m.SetPause(cycles)
		b.StartTimer()
		err = m.Run()
		b.StopTimer()
		if !errors.Is(err, core.ErrPaused) {
			b.Fatal(err)
		}
		instrs += m.Steps
		e, t := m.WaveStats()
		exits, takenBack = exits+e, takenBack+t
		m.Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
	b.ReportMetric(float64(takenBack)/float64(exits), "takenback/exit")
}

// BenchmarkRunUops runs the same program on one sequencer, where
// runBatch/runUops retire everything: the same micro-op handlers
// without the wave's per-commit ordering, i.e. the floor the wave's
// bookkeeping is measured against.
func BenchmarkRunUops(b *testing.B) {
	benchRun(b, core.Topology{0}, shredlib.ModeShred)
}
