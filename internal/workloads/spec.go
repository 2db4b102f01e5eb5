package workloads

import (
	"math"

	"misp/internal/asm"
	"misp/internal/shredlib"
)

// Behaviour-equivalent analogs of the five SPEComp applications the
// paper evaluates (§5.2). The real applications are large Fortran/C
// codes run through Intel's MISP-enabled OpenMP runtime; what Table 1
// and Figures 4–5 actually exercise is their *interaction signature*:
// large working sets (hundreds of thousands of page faults) and heavy
// OS interaction from the OpenMP runtime (tens of thousands of
// syscalls). The analogs reproduce that signature: multi-array grid
// and sparse solvers over page-rich data, parallelized with the same
// rt_parfor phase structure, with their flags making the gang
// schedulers yield to the OS while idle — the OpenMP-runtime behaviour
// that generates the SPEComp rows' OMS syscall counts.

// --- swim: shallow-water stencil (two coupled fields, double buffered) --

// emitStencil emits name(lo,hi): dst[i][j] = src[i][j] + dt*lap(lapSrc)[i][j].
func emitStencil(b *asm.Builder, name, dst, src, lapSrc string, w int64, dt float64) {
	b.Label(name)
	b.Prolog(r10, r11, r12, r13)
	b.Mov(r10, r1)
	b.Mov(r11, r2)
	b.LiF(14, r6, 0.25)
	b.LiF(15, r6, dt)
	b.Label(name + "_i")
	b.Bge(r10, r11, name+"_done")
	b.Li(r12, 1) // j
	b.Label(name + "_j")
	b.Li(r9, w-1)
	b.Bge(r12, r9, name+"_inext")
	b.Li(r6, w)
	b.Mul(r13, r10, r6)
	b.Add(r13, r13, r12)
	b.Shli(r13, r13, 3)
	// lap = 0.25*(n+s+w+e) - center, over lapSrc
	b.La(r6, lapSrc)
	b.Add(r7, r6, r13)
	b.Fld(1, r7, int32(-w*8))
	b.Fld(2, r7, int32(w*8))
	b.Fadd(1, 1, 2)
	b.Fld(2, r7, -8)
	b.Fadd(1, 1, 2)
	b.Fld(2, r7, 8)
	b.Fadd(1, 1, 2)
	b.Fmul(1, 1, 14)
	b.Fld(2, r7, 0)
	b.Fsub(1, 1, 2)
	// dst = src + dt*lap
	b.Fmul(1, 1, 15)
	b.La(r6, src)
	b.Add(r7, r6, r13)
	b.Fld(2, r7, 0)
	b.Fadd(1, 1, 2)
	b.La(r6, dst)
	b.Add(r7, r6, r13)
	b.Fst(1, r7, 0)
	b.Addi(r12, r12, 1)
	b.Jmp(name + "_j")
	b.Label(name + "_inext")
	b.Addi(r10, r10, 1)
	b.Jmp(name + "_i")
	b.Label(name + "_done")
	b.Epilog(r10, r11, r12, r13)
}

func refStencil(dst, src, lapSrc []float64, w, n int, dt float64) {
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			idx := i*w + j
			lap := float64(0.25*(lapSrc[idx-w]+lapSrc[idx+w]+lapSrc[idx-1]+lapSrc[idx+1])) - lapSrc[idx]
			dst[idx] = src[idx] + float64(dt*lap)
		}
	}
}

var _ = define(def[iterParams]{
	name:  "swim",
	suite: "SPEComp",
	flags: shredlib.FlagYieldOnIdle,
	sizes: [numSizes]iterParams{
		SizeTest:  {64, 2, 8},
		SizeSmall: {96, 4, 8},
		SizeRef:   {160, 6, 10},
	},
	emit: func(b *asm.Builder, p iterParams) {
		n := p.n
		w := n + 2
		b.Label("app_main")
		b.Prolog(r10)
		emitFillCall(b, "U", w*w, 1)
		emitFillCall(b, "V", w*w, 2)
		b.Li(r10, p.t/2) // steps run in pairs (ping-pong buffers)
		b.Label("sw_t")
		emitParforCall(b, "sw_u2", 1, n+1, p.grain) // U2 = U + dt lap(V)
		emitParforCall(b, "sw_v2", 1, n+1, p.grain) // V2 = V + dt lap(U)
		emitParforCall(b, "sw_u1", 1, n+1, p.grain) // U = U2 + dt lap(V2)
		emitParforCall(b, "sw_v1", 1, n+1, p.grain) // V = V2 + dt lap(U2)
		b.Addi(r10, r10, -1)
		b.Li(r9, 0)
		b.Bne(r10, r9, "sw_t")
		b.La(r1, "U")
		b.Li(r2, w*w)
		b.Call("sum_f64")
		b.Fmov(10, 0)
		b.La(r1, "V")
		b.Li(r2, w*w)
		b.Call("sum_f64")
		b.Fadd(0, 0, 10)
		emitFinish(b)
		b.Epilog(r10)

		emitStencil(b, "sw_u2", "U2", "U", "V", w, 0.2)
		emitStencil(b, "sw_v2", "V2", "V", "U", w, 0.2)
		emitStencil(b, "sw_u1", "U", "U2", "V2", w, 0.2)
		emitStencil(b, "sw_v1", "V", "V2", "U2", w, 0.2)

		b.BSS("U", uint64(w*w*8))
		b.BSS("V", uint64(w*w*8))
		b.BSS("U2", uint64(w*w*8))
		b.BSS("V2", uint64(w*w*8))
	},
	ref: func(p iterParams) float64 {
		n := int(p.n)
		w := n + 2
		U := make([]float64, w*w)
		V := make([]float64, w*w)
		U2 := make([]float64, w*w)
		V2 := make([]float64, w*w)
		fillRand(U, 1)
		fillRand(V, 2)
		for t := int64(0); t < p.t/2; t++ {
			refStencil(U2, U, V, w, n, 0.2)
			refStencil(V2, V, U, w, n, 0.2)
			refStencil(U, U2, V2, w, n, 0.2)
			refStencil(V, V2, U2, w, n, 0.2)
		}
		return sumF64(V) + sumF64(U)
	},
})

// --- applu: SSOR relaxation sweeps --------------------------------------

var _ = define(def[iterParams]{
	name:  "applu",
	suite: "SPEComp",
	flags: shredlib.FlagYieldOnIdle,
	sizes: [numSizes]iterParams{
		SizeTest:  {40, 2, 4},
		SizeSmall: {96, 4, 8},
		SizeRef:   {160, 5, 10},
	},
	emit: func(b *asm.Builder, p iterParams) {
		n := p.n
		w := n + 2
		b.Label("app_main")
		b.Prolog(r10, r11)
		emitFillCall(b, "G", w*w, 1)
		emitFillCall(b, "RHS", w*w, 2)
		b.Li(r10, p.t)
		b.Label("al_t")
		b.Li(r11, 0)
		b.Label("al_color")
		b.La(r6, "color")
		b.St(r11, r6, 0)
		emitParforCall(b, "applu_body", 1, n+1, p.grain)
		b.Addi(r11, r11, 1)
		b.Li(r9, 2)
		b.Blt(r11, r9, "al_color")
		b.Addi(r10, r10, -1)
		b.Li(r9, 0)
		b.Bne(r10, r9, "al_t")
		b.La(r1, "G")
		b.Li(r2, w*w)
		b.Call("sum_f64")
		emitFinish(b)
		b.Epilog(r10, r11)

		// applu_body: G = (1-omega)*G + omega*(0.25*neigh + RHS), red-black.
		b.Label("applu_body")
		b.Prolog(r10, r11, r12, r13)
		b.Mov(r10, r1)
		b.Mov(r11, r2)
		b.LiF(14, r6, 0.25)
		b.LiF(15, r6, 0.9) // omega
		b.LiF(13, r6, 0.1) // 1 - omega
		b.Label("ab_i")
		b.Bge(r10, r11, "ab_done")
		b.La(r6, "color")
		b.Ld(r12, r6, 0)
		b.Add(r12, r12, r10)
		b.Andi(r12, r12, 1)
		b.Li(r9, 1)
		b.Beq(r12, r9, "ab_j1")
		b.Li(r12, 2)
		b.Jmp("ab_jloop")
		b.Label("ab_j1")
		b.Li(r12, 1)
		b.Label("ab_jloop")
		b.Li(r9, n+1)
		b.Bge(r12, r9, "ab_inext")
		b.Li(r6, w)
		b.Mul(r13, r10, r6)
		b.Add(r13, r13, r12)
		b.Shli(r13, r13, 3)
		b.La(r6, "G")
		b.Add(r13, r6, r13)
		b.Fld(1, r13, int32(-w*8))
		b.Fld(2, r13, int32(w*8))
		b.Fadd(1, 1, 2)
		b.Fld(2, r13, -8)
		b.Fadd(1, 1, 2)
		b.Fld(2, r13, 8)
		b.Fadd(1, 1, 2)
		b.Fmul(1, 1, 14) // 0.25*neigh
		// + RHS
		b.La(r6, "G")
		b.Sub(r7, r13, r6) // byte offset
		b.La(r6, "RHS")
		b.Add(r7, r6, r7)
		b.Fld(2, r7, 0)
		b.Fadd(1, 1, 2)
		b.Fmul(1, 1, 15)
		b.Fld(2, r13, 0)
		b.Fmul(2, 2, 13)
		b.Fadd(1, 1, 2)
		b.Fst(1, r13, 0)
		b.Addi(r12, r12, 2)
		b.Jmp("ab_jloop")
		b.Label("ab_inext")
		b.Addi(r10, r10, 1)
		b.Jmp("ab_i")
		b.Label("ab_done")
		b.Epilog(r10, r11, r12, r13)

		b.BSS("G", uint64(w*w*8))
		b.BSS("RHS", uint64(w*w*8))
		b.BSS("color", 8)
	},
	ref: func(p iterParams) float64 {
		n := int(p.n)
		w := n + 2
		G := make([]float64, w*w)
		RHS := make([]float64, w*w)
		fillRand(G, 1)
		fillRand(RHS, 2)
		for t := int64(0); t < p.t; t++ {
			for color := 0; color < 2; color++ {
				for i := 1; i <= n; i++ {
					j0 := 2
					if (i+color)&1 == 1 {
						j0 = 1
					}
					for j := j0; j <= n; j += 2 {
						idx := i*w + j
						val := float64(0.25 * (G[idx-w] + G[idx+w] + G[idx-1] + G[idx+1]))
						G[idx] = float64(0.9*(val+RHS[idx])) + float64(0.1*G[idx])
					}
				}
			}
		}
		return sumF64(G)
	},
})

// --- galgel: dense kernel with heavy serial temp-buffer churn ------------

var _ = define(def[iterParams]{
	name:  "galgel",
	suite: "SPEComp",
	flags: shredlib.FlagYieldOnIdle,
	sizes: [numSizes]iterParams{
		SizeTest:  {24, 2, 2},
		SizeSmall: {48, 3, 2},
		SizeRef:   {80, 4, 2},
	},
	emit: func(b *asm.Builder, p iterParams) {
		n := p.n
		b.Label("app_main")
		b.Prolog(r10, r11)
		emitFillCall(b, "A", n*n, 1)
		b.Li(r10, 0) // t
		b.Label("gg_t")
		// Serial: fill a FRESH temp slab (new pages every iteration —
		// the paper's galgel is dominated by OMS page faults).
		b.Li(r6, n*n*8)
		b.Mul(r7, r10, r6)
		b.La(r1, "TMP")
		b.Add(r1, r1, r7)
		b.La(r6, "slabptr")
		b.St(r1, r6, 0)
		b.Li(r2, n*n)
		b.Addi(r3, r10, 10) // seed varies per slab
		b.Call("fill_rand")
		emitParforCall(b, "gg_body", 0, n, p.grain)
		b.Addi(r10, r10, 1)
		b.Li(r9, p.t)
		b.Blt(r10, r9, "gg_t")
		b.La(r1, "C")
		b.Li(r2, n*n)
		b.Call("sum_f64")
		emitFinish(b)
		b.Epilog(r10, r11)

		// gg_body(lo, hi): C[i][j] += A_row(i) . slab_col(j).
		b.Label("gg_body")
		b.Prolog(r10, r11, r12)
		b.Mov(r10, r1)
		b.Mov(r11, r2)
		b.Label("ggb_i")
		b.Bge(r10, r11, "ggb_done")
		b.Li(r12, 0)
		b.Label("ggb_j")
		b.Li(r9, n)
		b.Bge(r12, r9, "ggb_inext")
		b.Li(r6, n*8)
		b.Mul(r1, r10, r6)
		b.La(r7, "A")
		b.Add(r1, r7, r1)
		b.Shli(r2, r12, 3)
		b.La(r7, "slabptr")
		b.Ld(r7, r7, 0)
		b.Add(r2, r7, r2)
		b.Li(r3, n)
		b.Li(r4, n*8)
		b.Call("dots")
		b.Li(r6, n)
		b.Mul(r7, r10, r6)
		b.Add(r7, r7, r12)
		b.Shli(r7, r7, 3)
		b.La(r8, "C")
		b.Add(r7, r8, r7)
		b.Fld(1, r7, 0)
		b.Fadd(1, 1, 0)
		b.Fst(1, r7, 0)
		b.Addi(r12, r12, 1)
		b.Jmp("ggb_j")
		b.Label("ggb_inext")
		b.Addi(r10, r10, 1)
		b.Jmp("ggb_i")
		b.Label("ggb_done")
		b.Epilog(r10, r11, r12)

		b.BSS("A", uint64(n*n*8))
		b.BSS("C", uint64(n*n*8))
		b.BSS("TMP", uint64(p.t*n*n*8))
		b.BSS("slabptr", 8)
	},
	ref: func(p iterParams) float64 {
		n := int(p.n)
		A := make([]float64, n*n)
		C := make([]float64, n*n)
		slab := make([]float64, n*n)
		fillRand(A, 1)
		for t := int64(0); t < p.t; t++ {
			fillRand(slab, uint64(t+10))
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					acc := 0.0
					for k := 0; k < n; k++ {
						acc += float64(A[i*n+k] * slab[k*n+j])
					}
					C[i*n+j] += acc
				}
			}
		}
		return sumF64(C)
	},
})

// --- equake: sparse FEM time integration --------------------------------

var _ = define(def[iterParams]{
	name:  "equake",
	suite: "SPEComp",
	flags: shredlib.FlagYieldOnIdle,
	sizes: [numSizes]iterParams{
		SizeTest:  {256, 2, 32},
		SizeSmall: {1024, 4, 64},
		SizeRef:   {4096, 5, 256},
	},
	emit: func(b *asm.Builder, p iterParams) {
		n := p.n
		b.Label("app_main")
		b.Prolog(r10, r11)
		b.Call("col_init")
		emitFillCall(b, "VAL", n*sparseR, 2)
		emitFillCall(b, "U", n, 3)
		emitFillCall(b, "F", n, 4)
		b.Li(r10, p.t)
		b.Label("eq_t")
		emitParforCall(b, "eq_body", 0, n, p.grain) // Y = K U
		// Serial: U += dt*(F - Y)
		b.Li(r11, 0)
		b.LiF(15, r6, 0.01)
		b.Label("eq_upd")
		b.Li(r9, n)
		b.Bge(r11, r9, "eq_upd_done")
		b.Shli(r6, r11, 3)
		b.La(r7, "F")
		b.Add(r7, r7, r6)
		b.Fld(1, r7, 0)
		b.La(r7, "Y")
		b.Add(r7, r7, r6)
		b.Fld(2, r7, 0)
		b.Fsub(1, 1, 2)
		b.Fmul(1, 1, 15)
		b.La(r7, "U")
		b.Add(r7, r7, r6)
		b.Fld(2, r7, 0)
		b.Fadd(2, 2, 1)
		b.Fst(2, r7, 0)
		b.Addi(r11, r11, 1)
		b.Jmp("eq_upd")
		b.Label("eq_upd_done")
		b.Addi(r10, r10, -1)
		b.Li(r9, 0)
		b.Bne(r10, r9, "eq_t")
		b.La(r1, "U")
		b.Li(r2, n)
		b.Call("sum_f64")
		emitFinish(b)
		b.Epilog(r10, r11)

		emitRowSpMV(b, "eq", "U") // Y = K U

		emitColInitUniform(b, n)
		b.BSS("COL", uint64(n*sparseR*8))
		b.BSS("VAL", uint64(n*sparseR*8))
		b.BSS("U", uint64(n*8))
		b.BSS("F", uint64(n*8))
		b.BSS("Y", uint64(n*8))
	},
	ref: func(p iterParams) float64 {
		n := int(p.n)
		col := colsUniform(p.n)
		val := make([]float64, n*sparseR)
		u := make([]float64, n)
		f := make([]float64, n)
		y := make([]float64, n)
		fillRand(val, 2)
		fillRand(u, 3)
		fillRand(f, 4)
		for t := int64(0); t < p.t; t++ {
			refSpMV(y, val, u, col)
			for i := 0; i < n; i++ {
				u[i] += float64((f[i] - y[i]) * 0.01)
			}
		}
		return sumF64(u)
	},
})

// --- art: neural template matching ---------------------------------------

type artParams struct{ s, k, d, t, grain int64 }

var _ = define(def[artParams]{
	name:  "art",
	suite: "SPEComp",
	flags: shredlib.FlagYieldOnIdle,
	sizes: [numSizes]artParams{
		SizeTest:  {128, 8, 16, 2, 16},
		SizeSmall: {512, 8, 16, 3, 64},
		SizeRef:   {2048, 8, 16, 3, 128},
	},
	emit: func(b *asm.Builder, p artParams) {
		nc := chunks(p.s, p.grain)
		b.Label("app_main")
		b.Prolog(r10, r11, r12)
		emitFillCall(b, "XS", p.s*p.d, 1)
		emitFillCall(b, "WT", p.k*p.d, 2)
		b.Li(r10, p.t)
		b.Label("ar_t")
		emitParforCall(b, "ar_body", 0, p.s, p.grain)
		// Serial: ACC += all slab scores; decay templates.
		b.La(r6, "ACCA")
		b.Fld(10, r6, 0)
		b.La(r1, "SCORE")
		b.Li(r2, nc*p.k)
		b.Call("sum_f64")
		b.Fadd(10, 10, 0)
		b.La(r6, "ACCA")
		b.Fst(10, r6, 0)
		b.LiF(14, r6, 0.999)
		b.Li(r11, 0)
		b.Label("ar_decay")
		b.Li(r9, p.k*p.d)
		b.Bge(r11, r9, "ar_decay_done")
		b.Shli(r6, r11, 3)
		b.La(r7, "WT")
		b.Add(r6, r7, r6)
		b.Fld(1, r6, 0)
		b.Fmul(1, 1, 14)
		b.Fst(1, r6, 0)
		b.Addi(r11, r11, 1)
		b.Jmp("ar_decay")
		b.Label("ar_decay_done")
		b.Addi(r10, r10, -1)
		b.Li(r9, 0)
		b.Bne(r10, r9, "ar_t")
		// checksum = ACC + sum(WT)
		b.La(r1, "WT")
		b.Li(r2, p.k*p.d)
		b.Call("sum_f64")
		b.La(r6, "ACCA")
		b.Fld(10, r6, 0)
		b.Fadd(0, 0, 10)
		emitFinish(b)
		b.Epilog(r10, r11, r12)

		// ar_body(lo, hi): zero this chunk's K score slots; for each
		// input, find the best-matching template and add its score.
		b.Label("ar_body")
		b.Prolog(r10, r11, r12, r13)
		b.Mov(r10, r1)
		b.Mov(r11, r2)
		emitSlabZeroAndBase(b, "SCORE", p.grain, p.k, "arz", "ar_inputs")
		b.Bge(r10, r11, "ar_done")
		// best match over templates
		b.Li(r12, 0)                         // best k
		b.Li(r6, int64(-0x0010000000000000)) // bits of -Inf (0xFFF0...)
		b.Emit(fmviInstr(6, r6))             // f6 = -Inf
		b.Li(r5, 0)                          // k
		b.Label("ar_k")
		b.Li(r9, p.k)
		b.Bge(r5, r9, "ar_win")
		b.Li(r6, p.d*8)
		b.Mul(r1, r5, r6)
		b.La(r7, "WT")
		b.Add(r1, r7, r1)
		b.Li(r6, p.d*8)
		b.Mul(r2, r10, r6)
		b.La(r7, "XS")
		b.Add(r2, r7, r2)
		b.Li(r3, p.d)
		b.Li(r4, 8)
		b.Call("dots") // clobbers r1-r4,r6; preserves r5? r5 is caller-saved!
		// NOTE: dots preserves r5 because it only touches r1-r4, r6.
		b.Flt(r6, 6, 0) // best < m?
		b.Li(r9, 0)
		b.Beq(r6, r9, "ar_knext")
		b.Fmov(6, 0)
		b.Mov(r12, r5)
		b.Label("ar_knext")
		b.Addi(r5, r5, 1)
		b.Jmp("ar_k")
		b.Label("ar_win")
		b.Shli(r6, r12, 3)
		b.Add(r6, r13, r6)
		b.Fld(1, r6, 0)
		b.Fadd(1, 1, 6)
		b.Fst(1, r6, 0)
		b.Addi(r10, r10, 1)
		b.Jmp("ar_inputs")
		b.Label("ar_done")
		b.Epilog(r10, r11, r12, r13)

		b.BSS("XS", uint64(p.s*p.d*8))
		b.BSS("WT", uint64(p.k*p.d*8))
		b.BSS("SCORE", uint64(nc*p.k*8))
		b.BSS("ACCA", 8)
	},
	ref: func(p artParams) float64 {
		S, K, D := int(p.s), int(p.k), int(p.d)
		XS := make([]float64, S*D)
		WT := make([]float64, K*D)
		SCORE := make([]float64, int(chunks(p.s, p.grain))*K)
		fillRand(XS, 1)
		fillRand(WT, 2)
		acc := 0.0
		for t := int64(0); t < p.t; t++ {
			clear(SCORE)
			eachChunk(p.s, p.grain, func(c, lo, hi int) {
				sl := SCORE[c*K:]
				for s := lo; s < hi; s++ {
					best, bestM := 0, math.Inf(-1)
					for k := 0; k < K; k++ {
						m := 0.0
						for d := 0; d < D; d++ {
							m += float64(WT[k*D+d] * XS[s*D+d])
						}
						if bestM < m {
							bestM = m
							best = k
						}
					}
					sl[best] += bestM
				}
			})
			acc += sumF64(SCORE)
			for i := range WT {
				WT[i] *= 0.999
			}
		}
		return sumF64(WT) + acc
	},
})
