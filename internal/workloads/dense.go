package workloads

import "misp/internal/asm"

// The dense linear-algebra RMS kernels: dense_mmm, dense_mvm,
// dense_mvm_sym, ADAt.

// squareParams is an n x n problem split into parfor chunks of grain rows.
type squareParams struct{ n, grain int64 }

// squareSizes sizes dense_mmm and ADAt.
var squareSizes = [numSizes]squareParams{
	SizeTest:  {24, 2},
	SizeSmall: {48, 2},
	SizeRef:   {96, 2},
}

// mvmSizes sizes dense_mvm and dense_mvm_sym.
var mvmSizes = [numSizes]iterParams{
	SizeTest:  {96, 2, 8},
	SizeSmall: {256, 3, 8},
	SizeRef:   {512, 4, 16},
}

// --- dense_mmm: C = A x B --------------------------------------------

var _ = define(def[squareParams]{
	name:  "dense_mmm",
	suite: "RMS",
	sizes: squareSizes,
	emit: func(b *asm.Builder, p squareParams) {
		n := p.n
		b.Label("app_main")
		b.Prolog()
		emitFillCall(b, "A", n*n, 1)
		emitFillCall(b, "B", n*n, 2)
		emitParforCall(b, "mmm_body", 0, n, p.grain)
		b.La(r1, "C")
		b.Li(r2, n*n)
		b.Call("sum_f64")
		emitFinish(b)
		b.Epilog()

		b.Label("mmm_body") // (lo, hi)
		b.Prolog(r10, r11, r12)
		b.Mov(r10, r1) // i
		b.Mov(r11, r2) // hi
		b.Label("mmb_i")
		b.Bge(r10, r11, "mmb_done")
		b.Li(r12, 0) // j
		b.Label("mmb_j")
		b.Li(r9, n)
		b.Bge(r12, r9, "mmb_inext")
		b.Li(r6, n*8)
		b.Mul(r1, r10, r6)
		b.La(r7, "A")
		b.Add(r1, r7, r1) // aPtr = A + i*n*8
		b.Shli(r2, r12, 3)
		b.La(r7, "B")
		b.Add(r2, r7, r2) // bPtr = B + j*8
		b.Li(r3, n)
		b.Li(r4, n*8)
		b.Call("dots") // f0 = row_i(A) . col_j(B)
		b.Li(r6, n)
		b.Mul(r7, r10, r6)
		b.Add(r7, r7, r12)
		b.Shli(r7, r7, 3)
		b.La(r8, "C")
		b.Add(r7, r8, r7)
		b.Fst(0, r7, 0)
		b.Addi(r12, r12, 1)
		b.Jmp("mmb_j")
		b.Label("mmb_inext")
		b.Addi(r10, r10, 1)
		b.Jmp("mmb_i")
		b.Label("mmb_done")
		b.Epilog(r10, r11, r12)

		b.BSS("A", uint64(n*n*8))
		b.BSS("B", uint64(n*n*8))
		b.BSS("C", uint64(n*n*8))
	},
	ref: func(p squareParams) float64 {
		n := int(p.n)
		A := make([]float64, n*n)
		B := make([]float64, n*n)
		C := make([]float64, n*n)
		fillRand(A, 1)
		fillRand(B, 2)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				acc := 0.0
				for k := 0; k < n; k++ {
					acc += float64(A[i*n+k] * B[k*n+j])
				}
				C[i*n+j] = acc
			}
		}
		return sumF64(C)
	},
})

// --- dense_mvm: y = A x, repeated -------------------------------------

var _ = define(def[iterParams]{
	name:  "dense_mvm",
	suite: "RMS",
	sizes: mvmSizes,
	emit: func(b *asm.Builder, p iterParams) {
		n := p.n
		b.Label("app_main")
		b.Prolog(r10)
		emitFillCall(b, "A", n*n, 1)
		emitFillCall(b, "X", n, 2)
		b.Li(r10, p.t)
		b.Label("mvm_t")
		emitParforCall(b, "mvm_body", 0, n, p.grain)
		b.Addi(r10, r10, -1)
		b.Li(r9, 0)
		b.Bne(r10, r9, "mvm_t")
		b.La(r1, "Y")
		b.Li(r2, n)
		b.Call("sum_f64")
		emitFinish(b)
		b.Epilog(r10)

		b.Label("mvm_body")
		b.Prolog(r10, r11)
		b.Mov(r10, r1)
		b.Mov(r11, r2)
		b.Label("mvb_i")
		b.Bge(r10, r11, "mvb_done")
		b.Li(r6, n*8)
		b.Mul(r1, r10, r6)
		b.La(r7, "A")
		b.Add(r1, r7, r1)
		b.La(r2, "X")
		b.Li(r3, n)
		b.Li(r4, 8)
		b.Call("dots")
		b.Shli(r7, r10, 3)
		b.La(r8, "Y")
		b.Add(r7, r8, r7)
		b.Fst(0, r7, 0)
		b.Addi(r10, r10, 1)
		b.Jmp("mvb_i")
		b.Label("mvb_done")
		b.Epilog(r10, r11)

		b.BSS("A", uint64(n*n*8))
		b.BSS("X", uint64(n*8))
		b.BSS("Y", uint64(n*8))
	},
	ref: func(p iterParams) float64 {
		n := int(p.n)
		A := make([]float64, n*n)
		X := make([]float64, n)
		Y := make([]float64, n)
		fillRand(A, 1)
		fillRand(X, 2)
		for t := int64(0); t < p.t; t++ {
			for i := 0; i < n; i++ {
				acc := 0.0
				for k := 0; k < n; k++ {
					acc += float64(A[i*n+k] * X[k])
				}
				Y[i] = acc
			}
		}
		return sumF64(Y)
	},
})

// --- dense_mvm_sym: y = A x with packed symmetric A --------------------

var _ = define(def[iterParams]{
	name:  "dense_mvm_sym",
	suite: "RMS",
	sizes: mvmSizes,
	emit: func(b *asm.Builder, p iterParams) {
		n := p.n
		ap := n * (n + 1) / 2
		b.Label("app_main")
		b.Prolog(r10)
		emitFillCall(b, "AP", ap, 1)
		emitFillCall(b, "X", n, 2)
		b.Li(r10, p.t)
		b.Label("mvs_t")
		emitParforCall(b, "mvs_body", 0, n, p.grain)
		b.Addi(r10, r10, -1)
		b.Li(r9, 0)
		b.Bne(r10, r9, "mvs_t")
		b.La(r1, "Y")
		b.Li(r2, n)
		b.Call("sum_f64")
		emitFinish(b)
		b.Epilog(r10)

		// body(lo, hi): y_i = sum_{j<i} AP[idx(j,i)] x_j   (column part)
		//             + sum_{j>=i} AP[idx(i,j)] x_j        (row part)
		// idx(i,j) = i*n - i*(i-1)/2 + (j-i), packed upper triangle.
		b.Label("mvs_body")
		b.Prolog(r10, r11, r12, r13)
		b.Mov(r10, r1) // i
		b.Mov(r11, r2) // hi
		b.Label("msb_i")
		b.Bge(r10, r11, "msb_done")
		// Column part: element index p starts at i, steps by (n-1-j).
		b.Li(r6, 0)
		b.Emit(fmviInstr(4, r6)) // f4 = acc = 0
		b.Mov(r12, r10)          // p = i
		b.Li(r13, 0)             // j = 0
		b.Label("msb_col")
		b.Bge(r13, r10, "msb_row")
		b.Shli(r6, r12, 3)
		b.La(r7, "AP")
		b.Add(r6, r7, r6)
		b.Fld(1, r6, 0)
		b.Shli(r6, r13, 3)
		b.La(r7, "X")
		b.Add(r6, r7, r6)
		b.Fld(2, r6, 0)
		b.Fmul(1, 1, 2)
		b.Fadd(4, 4, 1)
		b.Li(r6, n-1)
		b.Sub(r6, r6, r13)
		b.Add(r12, r12, r6) // p += n-1-j
		b.Addi(r13, r13, 1)
		b.Jmp("msb_col")
		// Row part: base = i*n - i*(i-1)/2, contiguous.
		b.Label("msb_row")
		b.Li(r6, n)
		b.Mul(r6, r10, r6)
		b.Addi(r7, r10, -1)
		b.Mul(r7, r10, r7)
		b.Shri(r7, r7, 1)
		b.Sub(r6, r6, r7) // base index
		b.Shli(r6, r6, 3)
		b.La(r7, "AP")
		b.Add(r1, r7, r6)
		b.Shli(r6, r10, 3)
		b.La(r7, "X")
		b.Add(r2, r7, r6)
		b.Li(r3, n)
		b.Sub(r3, r3, r10) // n - i elements
		b.Li(r4, 8)
		b.Call("dots")
		b.Fadd(4, 4, 0)
		// Y[i] = acc
		b.Shli(r6, r10, 3)
		b.La(r7, "Y")
		b.Add(r6, r7, r6)
		b.Fst(4, r6, 0)
		b.Addi(r10, r10, 1)
		b.Jmp("msb_i")
		b.Label("msb_done")
		b.Epilog(r10, r11, r12, r13)

		b.BSS("AP", uint64(ap*8))
		b.BSS("X", uint64(n*8))
		b.BSS("Y", uint64(n*8))
	},
	ref: func(p iterParams) float64 {
		n := int(p.n)
		AP := make([]float64, n*(n+1)/2)
		X := make([]float64, n)
		Y := make([]float64, n)
		fillRand(AP, 1)
		fillRand(X, 2)
		idx := func(i, j int) int { return i*n - i*(i-1)/2 + (j - i) }
		for t := int64(0); t < p.t; t++ {
			for i := 0; i < n; i++ {
				acc := 0.0
				for j := 0; j < i; j++ {
					acc += float64(AP[idx(j, i)] * X[j])
				}
				row := 0.0
				for j := i; j < n; j++ {
					row += float64(AP[idx(i, j)] * X[j])
				}
				acc += row
				Y[i] = acc
			}
		}
		return sumF64(Y)
	},
})

// --- ADAt: B = A D A^T -------------------------------------------------

var _ = define(def[squareParams]{
	name:  "ADAt",
	suite: "RMS",
	sizes: squareSizes,
	emit: func(b *asm.Builder, p squareParams) {
		n := p.n
		b.Label("app_main")
		b.Prolog()
		emitFillCall(b, "A", n*n, 1)
		emitFillCall(b, "D", n, 2)
		// Phase 1: E[i][k] = A[i][k] * D[k] (row-parallel).
		emitParforCall(b, "adat_scale", 0, n, p.grain)
		// Phase 2: B[i][j] = E_i . A_j (row-parallel).
		emitParforCall(b, "adat_body", 0, n, p.grain)
		b.La(r1, "B")
		b.Li(r2, n*n)
		b.Call("sum_f64")
		emitFinish(b)
		b.Epilog()

		b.Label("adat_scale") // (lo, hi)
		b.Prolog(r10, r11, r12)
		b.Mov(r10, r1)
		b.Mov(r11, r2)
		b.Label("ads_i")
		b.Bge(r10, r11, "ads_done")
		b.Li(r12, 0) // k
		b.Label("ads_k")
		b.Li(r9, n)
		b.Bge(r12, r9, "ads_inext")
		b.Li(r6, n)
		b.Mul(r6, r10, r6)
		b.Add(r6, r6, r12)
		b.Shli(r6, r6, 3) // (i*n+k)*8
		b.La(r7, "A")
		b.Add(r7, r7, r6)
		b.Fld(1, r7, 0)
		b.Shli(r8, r12, 3)
		b.La(r7, "D")
		b.Add(r7, r7, r8)
		b.Fld(2, r7, 0)
		b.Fmul(1, 1, 2)
		b.La(r7, "E")
		b.Add(r7, r7, r6)
		b.Fst(1, r7, 0)
		b.Addi(r12, r12, 1)
		b.Jmp("ads_k")
		b.Label("ads_inext")
		b.Addi(r10, r10, 1)
		b.Jmp("ads_i")
		b.Label("ads_done")
		b.Epilog(r10, r11, r12)

		b.Label("adat_body") // (lo, hi)
		b.Prolog(r10, r11, r12)
		b.Mov(r10, r1)
		b.Mov(r11, r2)
		b.Label("adb_i")
		b.Bge(r10, r11, "adb_done")
		b.Li(r12, 0) // j
		b.Label("adb_j")
		b.Li(r9, n)
		b.Bge(r12, r9, "adb_inext")
		b.Li(r6, n*8)
		b.Mul(r1, r10, r6)
		b.La(r7, "E")
		b.Add(r1, r7, r1)
		b.Li(r6, n*8)
		b.Mul(r2, r12, r6)
		b.La(r7, "A")
		b.Add(r2, r7, r2)
		b.Li(r3, n)
		b.Li(r4, 8)
		b.Call("dots")
		b.Li(r6, n)
		b.Mul(r7, r10, r6)
		b.Add(r7, r7, r12)
		b.Shli(r7, r7, 3)
		b.La(r8, "B")
		b.Add(r7, r8, r7)
		b.Fst(0, r7, 0)
		b.Addi(r12, r12, 1)
		b.Jmp("adb_j")
		b.Label("adb_inext")
		b.Addi(r10, r10, 1)
		b.Jmp("adb_i")
		b.Label("adb_done")
		b.Epilog(r10, r11, r12)

		b.BSS("A", uint64(n*n*8))
		b.BSS("D", uint64(n*8))
		b.BSS("E", uint64(n*n*8))
		b.BSS("B", uint64(n*n*8))
	},
	ref: func(p squareParams) float64 {
		n := int(p.n)
		A := make([]float64, n*n)
		D := make([]float64, n)
		E := make([]float64, n*n)
		B := make([]float64, n*n)
		fillRand(A, 1)
		fillRand(D, 2)
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				E[i*n+k] = A[i*n+k] * D[k]
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				acc := 0.0
				for k := 0; k < n; k++ {
					acc += float64(E[i*n+k] * A[j*n+k])
				}
				B[i*n+j] = acc
			}
		}
		return sumF64(B)
	},
})
