package workloads

import (
	"misp/internal/asm"
	"misp/internal/isa"
	"misp/internal/shredlib"
)

// Register aliases (SVM-32 ABI).
const (
	r0  = isa.RRet
	r1  = isa.RArg0
	r2  = isa.RArg1
	r3  = isa.RArg2
	r4  = isa.RArg3
	r5  = isa.RArg4
	r6  = isa.RTmp0
	r7  = isa.RTmp1
	r8  = isa.RTmp2
	r9  = isa.RTmp3
	r10 = isa.RSav0
	r11 = isa.RSav1
	r12 = isa.RSav2
	r13 = isa.RSav3
	lr  = isa.LR
	sp  = isa.SP
)

// newProgram starts a workload program in the given runtime mode and
// emits the shared helper functions. flags already includes any
// harness-supplied extra flags (see define).
func newProgram(mode shredlib.Mode, flags int64) *asm.Builder {
	b := shredlib.NewProgram(mode, flags)
	emitFillRand(b)
	emitSumF64(b)
	emitDots(b)
	return b
}

// emitFillRand emits fill_rand(addr, count, seed): fill count float64s
// in [0,1) from the deterministic LCG stream.
func emitFillRand(b *asm.Builder) {
	b.Label("fill_rand")
	b.Mov(r6, r3) // x
	b.Li(r8, lcgMul)
	b.Li(r9, lcgAdd)
	b.LiF(2, r7, 1.0/(1<<53))
	b.Li(r4, 0)
	b.Label("fr_loop")
	b.Beq(r2, r4, "fr_done")
	b.Mul(r6, r6, r8)
	b.Add(r6, r6, r9)
	b.Shri(r7, r6, 11)
	b.Itof(1, r7)
	b.Fmul(1, 1, 2)
	b.Fst(1, r1, 0)
	b.Addi(r1, r1, 8)
	b.Addi(r2, r2, -1)
	b.Jmp("fr_loop")
	b.Label("fr_done")
	b.Ret()
}

// fillRand is the Go twin of fill_rand.
func fillRand(dst []float64, seed uint64) {
	g := lcg{x: seed}
	for i := range dst {
		dst[i] = g.f64()
	}
}

// emitSumF64 emits sum_f64(addr, count) -> f0: serial sum of float64s.
func emitSumF64(b *asm.Builder) {
	b.Label("sum_f64")
	b.Li(r4, 0)
	b.Emit(isa.Instr{Op: isa.OpFmvi, Rd: 0, Rs1: r4}) // f0 = +0.0
	b.Label("sf_loop")
	b.Beq(r2, r4, "sf_done")
	b.Fld(1, r1, 0)
	b.Fadd(0, 0, 1)
	b.Addi(r1, r1, 8)
	b.Addi(r2, r2, -1)
	b.Jmp("sf_loop")
	b.Label("sf_done")
	b.Ret()
}

// sumF64 is the Go twin of sum_f64.
func sumF64(xs []float64) float64 {
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	return sum
}

// emitDots emits dots(aPtr, bPtr, count, bStrideBytes) -> f0: a strided
// dot product (the inner loop of every dense kernel).
func emitDots(b *asm.Builder) {
	b.Label("dots")
	b.Li(r6, 0)
	b.Emit(isa.Instr{Op: isa.OpFmvi, Rd: 0, Rs1: r6}) // f0 = 0
	b.Label("ds_loop")
	b.Beq(r3, r6, "ds_done")
	b.Fld(1, r1, 0)
	b.Fld(2, r2, 0)
	b.Fmul(1, 1, 2)
	b.Fadd(0, 0, 1)
	b.Addi(r1, r1, 8)
	b.Add(r2, r2, r4)
	b.Addi(r3, r3, -1)
	b.Jmp("ds_loop")
	b.Label("ds_done")
	b.Ret()
}

// emitFinish stores the checksum in f0 to shredlib.ResultAddr and moves
// its integer truncation to r0 (the app_main return value / exit code).
func emitFinish(b *asm.Builder) {
	b.Li(r6, shredlib.ResultAddr)
	b.Fst(0, r6, 0)
	b.Ftoi(r0, 0)
}

// emitParforCall emits a call rt_parfor(fn, lo, hi, grain).
func emitParforCall(b *asm.Builder, fn string, lo, hi, grain int64) {
	b.La(r1, fn)
	b.Li(r2, lo)
	b.Li(r3, hi)
	b.Li(r4, grain)
	b.Call("rt_parfor")
}

// emitFillCall emits a call fill_rand(sym, count, seed).
func emitFillCall(b *asm.Builder, sym string, count int64, seed int64) {
	b.La(r1, sym)
	b.Li(r2, count)
	b.Li(r3, seed)
	b.Call("fill_rand")
}

// chunks returns ceil(n/grain) — the number of parfor chunks, used to
// size per-chunk partial-result arrays.
func chunks(n, grain int64) int64 { return (n + grain - 1) / grain }

// eachChunk calls f with each rt_parfor chunk of [0, n), in chunk order:
// the serial twin of the parallel partition.
func eachChunk(n, grain int64, f func(c, lo, hi int)) {
	for c := int64(0); c < chunks(n, grain); c++ {
		f(int(c), int(c*grain), int(min((c+1)*grain, n)))
	}
}

// emitSlabZeroAndBase emits the per-chunk preamble of the kernels that
// accumulate into a private slab of sym: compute the chunk's slab base
// (n float64s per chunk) into r13, zero it, and fall through to
// afterLbl. lo must still be in r1.
func emitSlabZeroAndBase(b *asm.Builder, sym string, grain, n int64, zeroLbl, afterLbl string) {
	b.Li(r6, grain)
	b.Div(r7, r1, r6)
	b.Li(r6, n*8)
	b.Mul(r7, r7, r6)
	b.La(r6, sym)
	b.Add(r13, r6, r7)
	b.Li(r6, 0)
	b.Li(r7, n)
	b.Mov(r8, r13)
	b.Label(zeroLbl)
	b.Li(r9, 0)
	b.Beq(r7, r9, afterLbl)
	b.St(r6, r8, 0)
	b.Addi(r8, r8, 8)
	b.Addi(r7, r7, -1)
	b.Jmp(zeroLbl)
	b.Label(afterLbl)
}

// fmviInstr builds an FMVI (raw bit move, integer to float register).
func fmviInstr(fd, rs uint8) isa.Instr {
	return isa.Instr{Op: isa.OpFmvi, Rd: fd, Rs1: rs}
}
