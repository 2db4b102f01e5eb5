package workloads

import (
	"math"

	"misp/internal/asm"
)

// gauss: red-black Gauss-Seidel iterative solver on an (n+2)^2 grid
// (the RMS PDE kernel). Each sweep runs two row-parallel color phases;
// within a phase every update reads only opposite-color neighbours, so
// the parallel schedule cannot change the result.

var _ = define(def[iterParams]{
	name:  "gauss",
	suite: "RMS",
	sizes: [numSizes]iterParams{
		SizeTest:  {32, 2, 4},
		SizeSmall: {64, 4, 4},
		SizeRef:   {128, 6, 8},
	},
	emit: func(b *asm.Builder, p iterParams) {
		n := p.n
		w := n + 2 // row width
		b.Label("app_main")
		b.Prolog(r10, r11)
		emitFillCall(b, "G", w*w, 1)
		b.Li(r10, p.t) // sweeps
		b.Label("ga_t")
		b.Li(r11, 0) // color
		b.Label("ga_color")
		b.La(r6, "color")
		b.St(r11, r6, 0)
		emitParforCall(b, "gauss_body", 1, n+1, p.grain)
		b.Addi(r11, r11, 1)
		b.Li(r9, 2)
		b.Blt(r11, r9, "ga_color")
		b.Addi(r10, r10, -1)
		b.Li(r9, 0)
		b.Bne(r10, r9, "ga_t")
		b.La(r1, "G")
		b.Li(r2, w*w)
		b.Call("sum_f64")
		emitFinish(b)
		b.Epilog(r10, r11)

		// gauss_body(lo, hi): update color cells of rows [lo, hi).
		b.Label("gauss_body")
		b.Prolog(r10, r11, r12, r13)
		b.Mov(r10, r1)
		b.Mov(r11, r2)
		b.LiF(4, r6, 0.25)
		b.Label("gb_i")
		b.Bge(r10, r11, "gb_done")
		// j parity: first j >= 1 with (i+j)%2 == color.
		b.La(r6, "color")
		b.Ld(r12, r6, 0)
		b.Add(r12, r12, r10)
		b.Andi(r12, r12, 1)
		b.Li(r9, 1)
		b.Beq(r12, r9, "gb_j1")
		b.Li(r12, 2)
		b.Jmp("gb_jloop")
		b.Label("gb_j1")
		b.Li(r12, 1)
		b.Label("gb_jloop")
		b.Li(r9, n+1)
		b.Bge(r12, r9, "gb_inext")
		// addr = G + (i*w + j)*8
		b.Li(r6, w)
		b.Mul(r13, r10, r6)
		b.Add(r13, r13, r12)
		b.Shli(r13, r13, 3)
		b.La(r6, "G")
		b.Add(r13, r6, r13)
		b.Fld(1, r13, int32(-w*8)) // up
		b.Fld(2, r13, int32(w*8))  // down
		b.Fadd(1, 1, 2)
		b.Fld(2, r13, -8) // left
		b.Fadd(1, 1, 2)
		b.Fld(2, r13, 8) // right
		b.Fadd(1, 1, 2)
		b.Fmul(1, 1, 4)
		b.Fst(1, r13, 0)
		b.Addi(r12, r12, 2)
		b.Jmp("gb_jloop")
		b.Label("gb_inext")
		b.Addi(r10, r10, 1)
		b.Jmp("gb_i")
		b.Label("gb_done")
		b.Epilog(r10, r11, r12, r13)

		b.BSS("G", uint64(w*w*8))
		b.BSS("color", 8)
	},
	ref: func(p iterParams) float64 {
		n := int(p.n)
		w := n + 2
		G := make([]float64, w*w)
		fillRand(G, 1)
		for t := int64(0); t < p.t; t++ {
			for color := 0; color < 2; color++ {
				for i := 1; i <= n; i++ {
					j0 := 2
					if (i+color)&1 == 1 {
						j0 = 1
					}
					for j := j0; j <= n; j += 2 {
						G[i*w+j] = 0.25 * (G[(i-1)*w+j] + G[(i+1)*w+j] + G[i*w+j-1] + G[i*w+j+1])
					}
				}
			}
		}
		return sumF64(G)
	},
})

// kmeans: Lloyd iterations with per-chunk partial sums (the standard
// deterministic parallelization: chunk-local accumulation, serial
// combine in chunk order).

type kmeansParams struct {
	pts, dims, k, t, grain int64
}

var _ = define(def[kmeansParams]{
	name:  "kmeans",
	suite: "RMS",
	sizes: [numSizes]kmeansParams{
		SizeTest:  {192, 4, 8, 2, 24},
		SizeSmall: {768, 4, 8, 3, 48},
		SizeRef:   {3072, 4, 8, 4, 96},
	},
	emit: func(b *asm.Builder, p kmeansParams) {
		nc := chunks(p.pts, p.grain)
		slab := p.k*p.dims + p.k // per-chunk floats: sums then counts
		b.Label("app_main")
		b.Prolog(r10, r11, r12, r13)
		emitFillCall(b, "PTS", p.pts*p.dims, 1)
		emitFillCall(b, "CENT", p.k*p.dims, 2)
		b.Li(r10, p.t)
		b.Label("km_t")
		emitParforCall(b, "km_assign", 0, p.pts, p.grain)
		// Serial combine: for k: sums/counts over chunks, update CENT.
		b.Li(r11, 0) // k
		b.Label("km_upd_k")
		b.Li(r9, p.k)
		b.Bge(r11, r9, "km_upd_done")
		// count = sum over chunks of PART[c*slab + k*dims.. ]
		b.Li(r12, 0) // d: dims..; handle counts first via d == dims marker
		// Loop d in 0..dims: acc = sum over c of PART[c][k*dims+d]
		// and cnt = sum over c of PART[c][k_cnt]; then divide.
		// cnt:
		b.Li(r6, 0)
		b.Emit(fmviInstr(5, r6)) // f5 = cnt
		b.Li(r13, 0)             // c
		b.Label("km_cnt_c")
		b.Li(r9, nc)
		b.Bge(r13, r9, "km_cnt_done")
		b.Li(r6, slab)
		b.Mul(r6, r13, r6)
		b.Li(r7, p.k*p.dims)
		b.Add(r6, r6, r7)
		b.Add(r6, r6, r11)
		b.Shli(r6, r6, 3)
		b.La(r7, "PART")
		b.Add(r6, r7, r6)
		b.Fld(1, r6, 0)
		b.Fadd(5, 5, 1)
		b.Addi(r13, r13, 1)
		b.Jmp("km_cnt_c")
		b.Label("km_cnt_done")
		// if cnt == 0: skip centroid update
		b.Li(r6, 0)
		b.Emit(fmviInstr(1, r6))
		b.Feq(r7, 5, 1)
		b.Li(r9, 1)
		b.Beq(r7, r9, "km_upd_next")
		// dims loop
		b.Li(r12, 0)
		b.Label("km_d")
		b.Li(r9, p.dims)
		b.Bge(r12, r9, "km_upd_next")
		b.Li(r6, 0)
		b.Emit(fmviInstr(4, r6)) // f4 = acc
		b.Li(r13, 0)
		b.Label("km_d_c")
		b.Li(r9, nc)
		b.Bge(r13, r9, "km_d_done")
		b.Li(r6, slab)
		b.Mul(r6, r13, r6)
		b.Li(r7, p.dims)
		b.Mul(r7, r11, r7)
		b.Add(r6, r6, r7)
		b.Add(r6, r6, r12)
		b.Shli(r6, r6, 3)
		b.La(r7, "PART")
		b.Add(r6, r7, r6)
		b.Fld(1, r6, 0)
		b.Fadd(4, 4, 1)
		b.Addi(r13, r13, 1)
		b.Jmp("km_d_c")
		b.Label("km_d_done")
		b.Fdiv(4, 4, 5) // mean
		b.Li(r6, p.dims)
		b.Mul(r6, r11, r6)
		b.Add(r6, r6, r12)
		b.Shli(r6, r6, 3)
		b.La(r7, "CENT")
		b.Add(r6, r7, r6)
		b.Fst(4, r6, 0)
		b.Addi(r12, r12, 1)
		b.Jmp("km_d")
		b.Label("km_upd_next")
		b.Addi(r11, r11, 1)
		b.Jmp("km_upd_k")
		b.Label("km_upd_done")
		b.Addi(r10, r10, -1)
		b.Li(r9, 0)
		b.Bne(r10, r9, "km_t")
		b.La(r1, "CENT")
		b.Li(r2, p.k*p.dims)
		b.Call("sum_f64")
		emitFinish(b)
		b.Epilog(r10, r11, r12, r13)

		// km_assign(lo, hi): zero this chunk's slab, then assign each
		// point to its nearest centroid and accumulate.
		b.Label("km_assign")
		b.Prolog(r10, r11, r12, r13)
		b.Mov(r10, r1) // p (lo)
		b.Mov(r11, r2) // hi
		emitSlabZeroAndBase(b, "PART", p.grain, slab, "ka_zero", "ka_pts")
		b.Bge(r10, r11, "ka_done")
		// find nearest centroid: best k in r12, best dist in f6
		b.Li(r12, 0) // best k
		b.Li(r6, 0x7FF0000000000000)
		b.Emit(fmviInstr(6, r6)) // f6 = +Inf
		b.Li(r5, 0)              // k
		b.Label("ka_k")
		b.Li(r9, p.k)
		b.Bge(r5, r9, "ka_acc")
		// dist^2 between PTS[p] and CENT[k]
		b.Li(r6, 0)
		b.Emit(fmviInstr(4, r6)) // f4 = acc
		b.Li(r4, 0)              // d
		b.Label("ka_d")
		b.Li(r9, p.dims)
		b.Bge(r4, r9, "ka_dd")
		b.Li(r6, p.dims)
		b.Mul(r6, r10, r6)
		b.Add(r6, r6, r4)
		b.Shli(r6, r6, 3)
		b.La(r7, "PTS")
		b.Add(r6, r7, r6)
		b.Fld(1, r6, 0)
		b.Li(r6, p.dims)
		b.Mul(r6, r5, r6)
		b.Add(r6, r6, r4)
		b.Shli(r6, r6, 3)
		b.La(r7, "CENT")
		b.Add(r6, r7, r6)
		b.Fld(2, r6, 0)
		b.Fsub(1, 1, 2)
		b.Fmul(1, 1, 1)
		b.Fadd(4, 4, 1)
		b.Addi(r4, r4, 1)
		b.Jmp("ka_d")
		b.Label("ka_dd")
		b.Flt(r6, 4, 6) // dist < best?
		b.Li(r9, 0)
		b.Beq(r6, r9, "ka_knext")
		b.Fmov(6, 4)
		b.Mov(r12, r5)
		b.Label("ka_knext")
		b.Addi(r5, r5, 1)
		b.Jmp("ka_k")
		// accumulate point into slab[best]
		b.Label("ka_acc")
		b.Li(r4, 0) // d
		b.Label("ka_acc_d")
		b.Li(r9, p.dims)
		b.Bge(r4, r9, "ka_cnt")
		b.Li(r6, p.dims)
		b.Mul(r6, r10, r6)
		b.Add(r6, r6, r4)
		b.Shli(r6, r6, 3)
		b.La(r7, "PTS")
		b.Add(r6, r7, r6)
		b.Fld(1, r6, 0)
		b.Li(r6, p.dims)
		b.Mul(r6, r12, r6)
		b.Add(r6, r6, r4)
		b.Shli(r6, r6, 3)
		b.Add(r6, r13, r6)
		b.Fld(2, r6, 0)
		b.Fadd(2, 2, 1)
		b.Fst(2, r6, 0)
		b.Addi(r4, r4, 1)
		b.Jmp("ka_acc_d")
		b.Label("ka_cnt")
		b.Li(r6, p.k*p.dims)
		b.Add(r6, r6, r12)
		b.Shli(r6, r6, 3)
		b.Add(r6, r13, r6)
		b.Fld(1, r6, 0)
		b.LiF(2, r7, 1.0)
		b.Fadd(1, 1, 2)
		b.Fst(1, r6, 0)
		b.Addi(r10, r10, 1)
		b.Jmp("ka_pts")
		b.Label("ka_done")
		b.Epilog(r10, r11, r12, r13)

		b.BSS("PTS", uint64(p.pts*p.dims*8))
		b.BSS("CENT", uint64(p.k*p.dims*8))
		b.BSS("PART", uint64(nc*slab*8))
	},
	ref: func(p kmeansParams) float64 {
		nc := int(chunks(p.pts, p.grain))
		dims, K := int(p.dims), int(p.k)
		slab := K*dims + K
		PTS := make([]float64, int(p.pts)*dims)
		CENT := make([]float64, K*dims)
		PART := make([]float64, nc*slab)
		fillRand(PTS, 1)
		fillRand(CENT, 2)
		for t := int64(0); t < p.t; t++ {
			clear(PART)
			eachChunk(p.pts, p.grain, func(c, lo, hi int) {
				sl := PART[c*slab:]
				for pt := lo; pt < hi; pt++ {
					best, bestD := 0, math.Inf(1)
					for k := 0; k < K; k++ {
						acc := 0.0
						for d := 0; d < dims; d++ {
							diff := PTS[pt*dims+d] - CENT[k*dims+d]
							acc += float64(diff * diff)
						}
						if acc < bestD {
							bestD = acc
							best = k
						}
					}
					for d := 0; d < dims; d++ {
						sl[best*dims+d] += PTS[pt*dims+d]
					}
					sl[K*dims+best] += 1.0
				}
			})
			for k := 0; k < K; k++ {
				cnt := 0.0
				for c := 0; c < nc; c++ {
					cnt += PART[c*slab+K*dims+k]
				}
				if cnt == 0 {
					continue
				}
				for d := 0; d < dims; d++ {
					acc := 0.0
					for c := 0; c < nc; c++ {
						acc += PART[c*slab+k*dims+d]
					}
					CENT[k*dims+d] = acc / cnt
				}
			}
		}
		return sumF64(CENT)
	},
})
