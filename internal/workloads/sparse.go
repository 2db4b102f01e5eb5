package workloads

import "misp/internal/asm"

// The sparse RMS kernels. Matrices are fixed-degree CSR: R nonzeros
// per row, column indices from the deterministic LCG stream. The
// symmetric and transposed variants scatter into per-chunk private
// vectors merged serially in chunk order, which keeps the parallel
// result bit-identical to the serial one.

const sparseR = 8 // nonzeros per row

var sparseSizes = [numSizes]iterParams{
	SizeTest:  {256, 2, 32},
	SizeSmall: {1024, 3, 64},
	SizeRef:   {4096, 4, 256},
}

// sparseSymSizes sizes both scatter kernels, sparse_mvm_sym and
// sparse_mvm_trans.
var sparseSymSizes = [numSizes]iterParams{
	SizeTest:  {192, 2, 16},
	SizeSmall: {768, 3, 64},
	SizeRef:   {2048, 4, 128},
}

// emitColInitUniform emits col_init(): COL[i*R+r] = (x>>11) % n.
func emitColInitUniform(b *asm.Builder, n int64) {
	b.Label("col_init")
	b.Li(r6, 1) // x = seed 1
	b.Li(r7, lcgMul)
	b.Li(r8, lcgAdd)
	b.La(r1, "COL")
	b.Li(r2, n*sparseR)
	b.Li(r4, 0)
	b.Label("ci_loop")
	b.Beq(r2, r4, "ci_done")
	b.Mul(r6, r6, r7)
	b.Add(r6, r6, r8)
	b.Shri(r9, r6, 11)
	b.Li(r3, n)
	b.Rem(r9, r9, r3)
	b.St(r9, r1, 0)
	b.Addi(r1, r1, 8)
	b.Addi(r2, r2, -1)
	b.Jmp("ci_loop")
	b.Label("ci_done")
	b.Ret()
}

// colsUniform is the Go twin of emitColInitUniform.
func colsUniform(n int64) []int64 {
	g := lcg{x: 1}
	out := make([]int64, n*sparseR)
	for i := range out {
		out[i] = int64((g.next() >> 11) % uint64(n))
	}
	return out
}

// emitColInitUpper emits col_init(): COL[i*R+r] = i + (x>>11)%(n-i).
func emitColInitUpper(b *asm.Builder, n int64) {
	b.Label("col_init")
	b.Li(r6, 1)
	b.Li(r7, lcgMul)
	b.Li(r8, lcgAdd)
	b.La(r1, "COL")
	b.Li(r2, 0) // i
	b.Label("cu_i")
	b.Li(r4, n)
	b.Bge(r2, r4, "cu_done")
	b.Li(r3, 0) // r
	b.Label("cu_r")
	b.Li(r4, sparseR)
	b.Bge(r3, r4, "cu_inext")
	b.Mul(r6, r6, r7)
	b.Add(r6, r6, r8)
	b.Shri(r9, r6, 11)
	b.Li(r4, n)
	b.Sub(r4, r4, r2) // n - i
	b.Rem(r9, r9, r4)
	b.Add(r9, r9, r2)
	b.St(r9, r1, 0)
	b.Addi(r1, r1, 8)
	b.Addi(r3, r3, 1)
	b.Jmp("cu_r")
	b.Label("cu_inext")
	b.Addi(r2, r2, 1)
	b.Jmp("cu_i")
	b.Label("cu_done")
	b.Ret()
}

func colsUpper(n int64) []int64 {
	g := lcg{x: 1}
	out := make([]int64, n*sparseR)
	for i := int64(0); i < n; i++ {
		for r := int64(0); r < sparseR; r++ {
			out[i*sparseR+r] = i + int64((g.next()>>11)%uint64(n-i))
		}
	}
	return out
}

// emitSlabMerge emits the serial merge: Y[i] = sum over chunks of
// SLAB[c*n + i], in chunk order.
func emitSlabMerge(b *asm.Builder, n, nc int64) {
	b.Li(r11, 0) // i
	b.Label("mg_i")
	b.Li(r9, n)
	b.Bge(r11, r9, "mg_done")
	b.Li(r6, 0)
	b.Emit(fmviInstr(4, r6))
	b.Li(r12, 0) // c
	b.Label("mg_c")
	b.Li(r9, nc)
	b.Bge(r12, r9, "mg_store")
	b.Li(r6, n)
	b.Mul(r6, r12, r6)
	b.Add(r6, r6, r11)
	b.Shli(r6, r6, 3)
	b.La(r7, "SLAB")
	b.Add(r6, r7, r6)
	b.Fld(1, r6, 0)
	b.Fadd(4, 4, 1)
	b.Addi(r12, r12, 1)
	b.Jmp("mg_c")
	b.Label("mg_store")
	b.Shli(r6, r11, 3)
	b.La(r7, "Y")
	b.Add(r6, r7, r6)
	b.Fst(4, r6, 0)
	b.Addi(r11, r11, 1)
	b.Jmp("mg_i")
	b.Label("mg_done")
}

// mergeSlabs is the Go twin of emitSlabMerge: y[i] is the sum over the
// len(slab)/len(y) chunk slabs of slab[c*n+i], in chunk order.
func mergeSlabs(y, slab []float64) {
	n := len(y)
	nc := len(slab) / n
	for i := range y {
		acc := 0.0
		for c := 0; c < nc; c++ {
			acc += slab[c*n+i]
		}
		y[i] = acc
	}
}

// emitRowSpMV emits <pre>_body(lo, hi): y_i = sum_r VAL[i*R+r] * x[COL[i*R+r]]
// for the rows [lo, hi), with labels <pre>b_*. sparse_mvm and equake
// share it.
func emitRowSpMV(b *asm.Builder, pre, x string) {
	b.Label(pre + "_body")
	b.Prolog(r10, r11, r12)
	b.Mov(r10, r1)
	b.Mov(r11, r2)
	b.Label(pre + "b_i")
	b.Bge(r10, r11, pre+"b_done")
	b.Li(r6, 0)
	b.Emit(fmviInstr(4, r6)) // acc
	b.Li(r12, 0)             // r
	b.Label(pre + "b_r")
	b.Li(r9, sparseR)
	b.Bge(r12, r9, pre+"b_store")
	b.Li(r6, sparseR)
	b.Mul(r6, r10, r6)
	b.Add(r6, r6, r12)
	b.Shli(r6, r6, 3) // (i*R+r)*8
	b.La(r7, "COL")
	b.Add(r7, r7, r6)
	b.Ld(r8, r7, 0) // c
	b.La(r7, "VAL")
	b.Add(r7, r7, r6)
	b.Fld(1, r7, 0)
	b.Shli(r8, r8, 3)
	b.La(r7, x)
	b.Add(r7, r7, r8)
	b.Fld(2, r7, 0)
	b.Fmul(1, 1, 2)
	b.Fadd(4, 4, 1)
	b.Addi(r12, r12, 1)
	b.Jmp(pre + "b_r")
	b.Label(pre + "b_store")
	b.Shli(r6, r10, 3)
	b.La(r7, "Y")
	b.Add(r6, r7, r6)
	b.Fst(4, r6, 0)
	b.Addi(r10, r10, 1)
	b.Jmp(pre + "b_i")
	b.Label(pre + "b_done")
	b.Epilog(r10, r11, r12)
}

// refSpMV is the Go twin of emitRowSpMV over every row.
func refSpMV(y, val, x []float64, col []int64) {
	for i := range y {
		acc := 0.0
		for r := 0; r < sparseR; r++ {
			acc += float64(val[i*sparseR+r] * x[col[i*sparseR+r]])
		}
		y[i] = acc
	}
}

var _ = define(def[iterParams]{
	name:  "sparse_mvm",
	suite: "RMS",
	sizes: sparseSizes,
	emit: func(b *asm.Builder, p iterParams) {
		n := p.n
		b.Label("app_main")
		b.Prolog(r10)
		b.Call("col_init")
		emitFillCall(b, "VAL", n*sparseR, 2)
		emitFillCall(b, "X", n, 3)
		b.Li(r10, p.t)
		b.Label("sp_t")
		emitParforCall(b, "sp_body", 0, n, p.grain)
		b.Addi(r10, r10, -1)
		b.Li(r9, 0)
		b.Bne(r10, r9, "sp_t")
		b.La(r1, "Y")
		b.Li(r2, n)
		b.Call("sum_f64")
		emitFinish(b)
		b.Epilog(r10)

		emitRowSpMV(b, "sp", "X")

		emitColInitUniform(b, n)
		b.BSS("COL", uint64(n*sparseR*8))
		b.BSS("VAL", uint64(n*sparseR*8))
		b.BSS("X", uint64(n*8))
		b.BSS("Y", uint64(n*8))
	},
	ref: func(p iterParams) float64 {
		n := int(p.n)
		col := colsUniform(p.n)
		val := make([]float64, n*sparseR)
		x := make([]float64, n)
		y := make([]float64, n)
		fillRand(val, 2)
		fillRand(x, 3)
		for t := int64(0); t < p.t; t++ {
			refSpMV(y, val, x, col)
		}
		return sumF64(y)
	},
})

var _ = define(def[iterParams]{
	name:  "sparse_mvm_sym",
	suite: "RMS",
	sizes: sparseSymSizes,
	emit: func(b *asm.Builder, p iterParams) {
		n := p.n
		nc := chunks(n, p.grain)
		b.Label("app_main")
		b.Prolog(r10, r11, r12)
		b.Call("col_init")
		emitFillCall(b, "VAL", n*sparseR, 2)
		emitFillCall(b, "X", n, 3)
		b.Li(r10, p.t)
		b.Label("sy_t")
		emitParforCall(b, "sy_body", 0, n, p.grain)
		emitSlabMerge(b, n, nc)
		b.Addi(r10, r10, -1)
		b.Li(r9, 0)
		b.Bne(r10, r9, "sy_t")
		b.La(r1, "Y")
		b.Li(r2, n)
		b.Call("sum_f64")
		emitFinish(b)
		b.Epilog(r10, r11, r12)

		// sy_body(lo, hi): for stored upper entries (i, c):
		// slab[i] += v*X[c]; if c != i: slab[c] += v*X[i].
		b.Label("sy_body")
		b.Prolog(r10, r11, r12, r13)
		b.Mov(r10, r1)
		b.Mov(r11, r2)
		emitSlabZeroAndBase(b, "SLAB", p.grain, n, "syz", "sy_rows")
		b.Bge(r10, r11, "sy_done")
		b.Li(r12, 0) // r
		b.Label("sy_r")
		b.Li(r9, sparseR)
		b.Bge(r12, r9, "sy_rnext")
		b.Li(r6, sparseR)
		b.Mul(r6, r10, r6)
		b.Add(r6, r6, r12)
		b.Shli(r6, r6, 3)
		b.La(r7, "COL")
		b.Add(r7, r7, r6)
		b.Ld(r8, r7, 0) // c
		b.La(r7, "VAL")
		b.Add(r7, r7, r6)
		b.Fld(1, r7, 0) // v
		// slab[i] += v * X[c]
		b.Shli(r6, r8, 3)
		b.La(r7, "X")
		b.Add(r7, r7, r6)
		b.Fld(2, r7, 0)
		b.Fmul(2, 1, 2)
		b.Shli(r6, r10, 3)
		b.Add(r6, r13, r6)
		b.Fld(3, r6, 0)
		b.Fadd(3, 3, 2)
		b.Fst(3, r6, 0)
		// if c != i: slab[c] += v * X[i]
		b.Beq(r8, r10, "sy_rskip")
		b.Shli(r6, r10, 3)
		b.La(r7, "X")
		b.Add(r7, r7, r6)
		b.Fld(2, r7, 0)
		b.Fmul(2, 1, 2)
		b.Shli(r6, r8, 3)
		b.Add(r6, r13, r6)
		b.Fld(3, r6, 0)
		b.Fadd(3, 3, 2)
		b.Fst(3, r6, 0)
		b.Label("sy_rskip")
		b.Addi(r12, r12, 1)
		b.Jmp("sy_r")
		b.Label("sy_rnext")
		b.Addi(r10, r10, 1)
		b.Jmp("sy_rows")
		b.Label("sy_done")
		b.Epilog(r10, r11, r12, r13)

		emitColInitUpper(b, n)
		b.BSS("COL", uint64(n*sparseR*8))
		b.BSS("VAL", uint64(n*sparseR*8))
		b.BSS("X", uint64(n*8))
		b.BSS("Y", uint64(n*8))
		b.BSS("SLAB", uint64(nc*n*8))
	},
	ref: func(p iterParams) float64 {
		n := int(p.n)
		col := colsUpper(p.n)
		val := make([]float64, n*sparseR)
		x := make([]float64, n)
		y := make([]float64, n)
		slab := make([]float64, int(chunks(p.n, p.grain))*n)
		fillRand(val, 2)
		fillRand(x, 3)
		for t := int64(0); t < p.t; t++ {
			clear(slab)
			eachChunk(p.n, p.grain, func(c, lo, hi int) {
				sl := slab[c*n:]
				for i := lo; i < hi; i++ {
					for r := 0; r < sparseR; r++ {
						cc := col[i*sparseR+r]
						v := val[i*sparseR+r]
						sl[i] += float64(v * x[cc])
						if int(cc) != i {
							sl[cc] += float64(v * x[i])
						}
					}
				}
			})
			mergeSlabs(y, slab)
		}
		return sumF64(y)
	},
})

var _ = define(def[iterParams]{
	name:  "sparse_mvm_trans",
	suite: "RMS",
	sizes: sparseSymSizes,
	emit: func(b *asm.Builder, p iterParams) {
		n := p.n
		nc := chunks(n, p.grain)
		b.Label("app_main")
		b.Prolog(r10, r11, r12)
		b.Call("col_init")
		emitFillCall(b, "VAL", n*sparseR, 2)
		emitFillCall(b, "X", n, 3)
		b.Li(r10, p.t)
		b.Label("st_t")
		emitParforCall(b, "st_body", 0, n, p.grain)
		emitSlabMerge(b, n, nc)
		b.Addi(r10, r10, -1)
		b.Li(r9, 0)
		b.Bne(r10, r9, "st_t")
		b.La(r1, "Y")
		b.Li(r2, n)
		b.Call("sum_f64")
		emitFinish(b)
		b.Epilog(r10, r11, r12)

		// st_body(lo, hi): y = A^T x scatter — slab[c] += v * X[i].
		b.Label("st_body")
		b.Prolog(r10, r11, r12, r13)
		b.Mov(r10, r1)
		b.Mov(r11, r2)
		emitSlabZeroAndBase(b, "SLAB", p.grain, n, "stz", "st_rows")
		b.Bge(r10, r11, "st_done")
		// f5 = X[i]
		b.Shli(r6, r10, 3)
		b.La(r7, "X")
		b.Add(r7, r7, r6)
		b.Fld(5, r7, 0)
		b.Li(r12, 0)
		b.Label("st_r")
		b.Li(r9, sparseR)
		b.Bge(r12, r9, "st_rnext")
		b.Li(r6, sparseR)
		b.Mul(r6, r10, r6)
		b.Add(r6, r6, r12)
		b.Shli(r6, r6, 3)
		b.La(r7, "COL")
		b.Add(r7, r7, r6)
		b.Ld(r8, r7, 0)
		b.La(r7, "VAL")
		b.Add(r7, r7, r6)
		b.Fld(1, r7, 0)
		b.Fmul(1, 1, 5)
		b.Shli(r6, r8, 3)
		b.Add(r6, r13, r6)
		b.Fld(3, r6, 0)
		b.Fadd(3, 3, 1)
		b.Fst(3, r6, 0)
		b.Addi(r12, r12, 1)
		b.Jmp("st_r")
		b.Label("st_rnext")
		b.Addi(r10, r10, 1)
		b.Jmp("st_rows")
		b.Label("st_done")
		b.Epilog(r10, r11, r12, r13)

		emitColInitUniform(b, n)
		b.BSS("COL", uint64(n*sparseR*8))
		b.BSS("VAL", uint64(n*sparseR*8))
		b.BSS("X", uint64(n*8))
		b.BSS("Y", uint64(n*8))
		b.BSS("SLAB", uint64(nc*n*8))
	},
	ref: func(p iterParams) float64 {
		n := int(p.n)
		col := colsUniform(p.n)
		val := make([]float64, n*sparseR)
		x := make([]float64, n)
		y := make([]float64, n)
		slab := make([]float64, int(chunks(p.n, p.grain))*n)
		fillRand(val, 2)
		fillRand(x, 3)
		for t := int64(0); t < p.t; t++ {
			clear(slab)
			eachChunk(p.n, p.grain, func(c, lo, hi int) {
				sl := slab[c*n:]
				for i := lo; i < hi; i++ {
					xv := x[i]
					for r := 0; r < sparseR; r++ {
						sl[col[i*sparseR+r]] += float64(val[i*sparseR+r] * xv)
					}
				}
			})
			mergeSlabs(y, slab)
		}
		return sumF64(y)
	},
})
