package workloads

import (
	"math"

	"misp/internal/asm"
)

// svm_c: hinge-loss SVM training sweeps (the RMS classification
// kernel): per-chunk gradient accumulation, serial weight update.

type svmParams struct{ s, d, t, grain int64 }

var _ = define(def[svmParams]{
	name:  "svm_c",
	suite: "RMS",
	sizes: [numSizes]svmParams{
		SizeTest:  {128, 16, 2, 16},
		SizeSmall: {512, 16, 3, 64},
		SizeRef:   {2048, 16, 3, 128},
	},
	emit: func(b *asm.Builder, p svmParams) {
		nc := chunks(p.s, p.grain)
		b.Label("app_main")
		b.Prolog(r10, r11, r12, r13)
		emitFillCall(b, "X", p.s*p.d, 1)
		b.Call("lbl_init")
		b.Li(r10, p.t)
		b.Label("sv_t")
		emitParforCall(b, "sv_body", 0, p.s, p.grain)
		// Serial update: W[d] += eta * sum_c GRAD[c][d].
		b.Li(r11, 0) // d
		b.Label("sv_upd")
		b.Li(r9, p.d)
		b.Bge(r11, r9, "sv_upd_done")
		b.Li(r6, 0)
		b.Emit(fmviInstr(4, r6))
		b.Li(r12, 0) // c
		b.Label("sv_upd_c")
		b.Li(r9, nc)
		b.Bge(r12, r9, "sv_upd_w")
		b.Li(r6, p.d)
		b.Mul(r6, r12, r6)
		b.Add(r6, r6, r11)
		b.Shli(r6, r6, 3)
		b.La(r7, "GRAD")
		b.Add(r6, r7, r6)
		b.Fld(1, r6, 0)
		b.Fadd(4, 4, 1)
		b.Addi(r12, r12, 1)
		b.Jmp("sv_upd_c")
		b.Label("sv_upd_w")
		b.LiF(1, r6, 0.001) // eta
		b.Fmul(4, 4, 1)
		b.Shli(r6, r11, 3)
		b.La(r7, "W")
		b.Add(r6, r7, r6)
		b.Fld(1, r6, 0)
		b.Fadd(1, 1, 4)
		b.Fst(1, r6, 0)
		b.Addi(r11, r11, 1)
		b.Jmp("sv_upd")
		b.Label("sv_upd_done")
		b.Addi(r10, r10, -1)
		b.Li(r9, 0)
		b.Bne(r10, r9, "sv_t")
		b.La(r1, "W")
		b.Li(r2, p.d)
		b.Call("sum_f64")
		emitFinish(b)
		b.Epilog(r10, r11, r12, r13)

		// sv_body(lo, hi): zero this chunk's gradient, then for each
		// sample: margin = (W . x_s) * y_s; if margin < 1, grad += y_s x_s.
		b.Label("sv_body")
		b.Prolog(r10, r11, r12, r13)
		b.Mov(r10, r1)
		b.Mov(r11, r2)
		emitSlabZeroAndBase(b, "GRAD", p.grain, p.d, "svz", "sv_samples")
		b.Bge(r10, r11, "sv_done")
		// m = W . x_s
		b.La(r1, "W")
		b.Li(r6, p.d*8)
		b.Mul(r2, r10, r6)
		b.La(r7, "X")
		b.Add(r2, r7, r2)
		b.Li(r3, p.d)
		b.Li(r4, 8)
		b.Call("dots") // f0 = m
		// y_s
		b.Shli(r6, r10, 3)
		b.La(r7, "LBL")
		b.Add(r6, r7, r6)
		b.Fld(5, r6, 0)
		b.Fmul(1, 0, 5) // margin = m * y
		b.LiF(2, r6, 1.0)
		b.Flt(r7, 1, 2)
		b.Li(r9, 0)
		b.Beq(r7, r9, "sv_next")
		// grad[d] += y * x[s*D+d]
		b.Li(r12, 0)
		b.Label("sv_g")
		b.Li(r9, p.d)
		b.Bge(r12, r9, "sv_next")
		b.Li(r6, p.d)
		b.Mul(r6, r10, r6)
		b.Add(r6, r6, r12)
		b.Shli(r6, r6, 3)
		b.La(r7, "X")
		b.Add(r6, r7, r6)
		b.Fld(1, r6, 0)
		b.Fmul(1, 1, 5)
		b.Shli(r6, r12, 3)
		b.Add(r6, r13, r6)
		b.Fld(2, r6, 0)
		b.Fadd(2, 2, 1)
		b.Fst(2, r6, 0)
		b.Addi(r12, r12, 1)
		b.Jmp("sv_g")
		b.Label("sv_next")
		b.Addi(r10, r10, 1)
		b.Jmp("sv_samples")
		b.Label("sv_done")
		b.Epilog(r10, r11, r12, r13)

		// lbl_init: LBL[s] = +1.0 or -1.0 from the LCG stream (seed 2).
		b.Label("lbl_init")
		b.Li(r6, 2)
		b.Li(r7, lcgMul)
		b.Li(r8, lcgAdd)
		b.La(r1, "LBL")
		b.Li(r2, p.s)
		b.LiF(1, r9, 1.0)
		b.LiF(2, r9, -1.0)
		b.Li(r4, 0)
		b.Label("lb_loop")
		b.Beq(r2, r4, "lb_done")
		b.Mul(r6, r6, r7)
		b.Add(r6, r6, r8)
		b.Shri(r9, r6, 11)
		b.Andi(r9, r9, 1)
		b.Li(r3, 0)
		b.Beq(r9, r3, "lb_neg")
		b.Fst(1, r1, 0)
		b.Jmp("lb_next")
		b.Label("lb_neg")
		b.Fst(2, r1, 0)
		b.Label("lb_next")
		b.Addi(r1, r1, 8)
		b.Addi(r2, r2, -1)
		b.Jmp("lb_loop")
		b.Label("lb_done")
		b.Ret()

		b.BSS("X", uint64(p.s*p.d*8))
		b.BSS("LBL", uint64(p.s*8))
		b.BSS("W", uint64(p.d*8))
		b.BSS("GRAD", uint64(nc*p.d*8))
	},
	ref: func(p svmParams) float64 {
		S, D := int(p.s), int(p.d)
		nc := int(chunks(p.s, p.grain))
		X := make([]float64, S*D)
		fillRand(X, 1)
		lblGen := lcg{x: 2}
		LBL := make([]float64, S)
		for i := range LBL {
			if (lblGen.next()>>11)&1 == 1 {
				LBL[i] = 1.0
			} else {
				LBL[i] = -1.0
			}
		}
		W := make([]float64, D)
		GRAD := make([]float64, nc*D)
		for t := int64(0); t < p.t; t++ {
			clear(GRAD)
			eachChunk(p.s, p.grain, func(c, lo, hi int) {
				g := GRAD[c*D:]
				for s := lo; s < hi; s++ {
					m := 0.0
					for d := 0; d < D; d++ {
						m += float64(W[d] * X[s*D+d])
					}
					if m*LBL[s] < 1.0 {
						for d := 0; d < D; d++ {
							g[d] += float64(X[s*D+d] * LBL[s])
						}
					}
				}
			})
			for d := 0; d < D; d++ {
				acc := 0.0
				for c := 0; c < nc; c++ {
					acc += GRAD[c*D+d]
				}
				W[d] += float64(acc * 0.001)
			}
		}
		return sumF64(W)
	},
})

// raytracer: the RMS ray-tracing application — a sphere scene rendered
// row-parallel; per-chunk luminance totals reduced serially.

type rayParams struct{ w, h, grain int64 }

const raySpheres = 6

// raySceneData generates the sphere scene (cx, cy, cz, radius per
// sphere) and the normalized light direction — identical constants in
// the emitted data section and the Go reference.
func raySceneData() (sph []float64, light [3]float64) {
	g := lcg{x: 7}
	for i := 0; i < raySpheres; i++ {
		cx := float64(2*g.f64()) - 1
		cy := float64(2*g.f64()) - 1
		cz := 2 + float64(3*g.f64())
		r := 0.2 + float64(0.3*g.f64())
		sph = append(sph, cx, cy, cz, r)
	}
	// Fixed light direction, pre-normalized at generation time.
	lx, ly, lz := 0.5, 0.7, -0.5
	n := 1.0 / math.Sqrt(lx*lx+ly*ly+lz*lz)
	return sph, [3]float64{lx * n, ly * n, lz * n}
}

var _ = define(def[rayParams]{
	name:  "raytracer",
	suite: "RMS",
	sizes: [numSizes]rayParams{
		SizeTest:  {48, 36, 4},
		SizeSmall: {96, 72, 6},
		SizeRef:   {160, 120, 10},
	},
	emit: func(b *asm.Builder, p rayParams) {
		nc := chunks(p.h, p.grain)
		sph, light := raySceneData()
		b.Label("app_main")
		b.Prolog()
		emitParforCall(b, "ray_body", 0, p.h, p.grain)
		b.La(r1, "PART")
		b.Li(r2, nc)
		b.Call("sum_f64")
		emitFinish(b)
		b.Epilog()

		// ray_body(lo, hi): trace rows [lo, hi); PART[chunk] = luminance sum.
		// Float register plan: f0 = 0.0, f7 = chunk acc, f8 u, f9 v,
		// f10..f12 ray dir, f13 best t, f1..f6 temps.
		b.Label("ray_body")
		b.Prolog(r10, r11, r12, r13)
		b.Mov(r10, r1) // py
		b.Mov(r11, r2) // hi
		b.Li(r6, p.grain)
		b.Div(r13, r1, r6) // chunk index
		b.Li(r6, 0)
		b.Emit(fmviInstr(0, r6)) // f0 = 0.0
		b.Emit(fmviInstr(7, r6)) // f7 = acc
		b.Label("ry_row")
		b.Bge(r10, r11, "ry_done")
		b.Li(r12, 0) // px
		b.Label("ry_px")
		b.Li(r9, p.w)
		b.Bge(r12, r9, "ry_rownext")
		// u = (px+0.5)*(2/W) - 1 ; v = (py+0.5)*(2/H) - 1
		b.Itof(8, r12)
		b.LiF(1, r6, 0.5)
		b.Fadd(8, 8, 1)
		b.LiF(2, r6, 2.0/float64(p.w))
		b.Fmul(8, 8, 2)
		b.LiF(2, r6, 1.0)
		b.Fsub(8, 8, 2)
		b.Itof(9, r10)
		b.Fadd(9, 9, 1)
		b.LiF(2, r6, 2.0/float64(p.h))
		b.Fmul(9, 9, 2)
		b.LiF(2, r6, 1.0)
		b.Fsub(9, 9, 2)
		// dir = normalize(u, v, 1)
		b.Fmul(1, 8, 8)
		b.Fmul(2, 9, 9)
		b.Fadd(1, 1, 2)
		b.LiF(2, r6, 1.0)
		b.Fadd(1, 1, 2)
		b.Fsqrt(1, 1)
		b.Fdiv(2, 2, 1) // 2 held 1.0: inv = 1/len
		b.Fmul(10, 8, 2)
		b.Fmul(11, 9, 2)
		b.Fmov(12, 2)
		// tbest = +Inf, kbest = -1
		b.Li(r6, 0x7FF0000000000000)
		b.Emit(fmviInstr(13, r6))
		b.Li(r5, -1)
		b.Li(r4, 0) // k
		b.Label("ry_sph")
		b.Li(r9, raySpheres)
		b.Bge(r4, r9, "ry_shade")
		b.Shli(r6, r4, 5) // k*32
		b.La(r7, "SPH")
		b.Add(r7, r7, r6)
		b.Fld(1, r7, 0)  // cx
		b.Fld(2, r7, 8)  // cy
		b.Fld(3, r7, 16) // cz
		b.Fld(4, r7, 24) // r
		// b = d . c
		b.Fmul(5, 10, 1)
		b.Fmul(6, 11, 2)
		b.Fadd(5, 5, 6)
		b.Fmul(6, 12, 3)
		b.Fadd(5, 5, 6)
		// cc = |c|^2 - r^2
		b.Fmul(6, 1, 1)
		b.Fmul(1, 2, 2)
		b.Fadd(6, 6, 1)
		b.Fmul(1, 3, 3)
		b.Fadd(6, 6, 1)
		b.Fmul(1, 4, 4)
		b.Fsub(6, 6, 1)
		// disc = b^2 - cc
		b.Fmul(1, 5, 5)
		b.Fsub(1, 1, 6)
		b.Fle(r6, 1, 0) // disc <= 0?
		b.Li(r9, 1)
		b.Beq(r6, r9, "ry_next")
		b.Fsqrt(1, 1)
		b.Fsub(1, 5, 1) // t = b - sqrt(disc)
		b.LiF(6, r6, 0.001)
		b.Fle(r7, 1, 6) // t <= eps?
		b.Li(r9, 1)
		b.Beq(r7, r9, "ry_next")
		b.Flt(r7, 1, 13) // t < tbest?
		b.Li(r9, 0)
		b.Beq(r7, r9, "ry_next")
		b.Fmov(13, 1)
		b.Mov(r5, r4)
		b.Label("ry_next")
		b.Addi(r4, r4, 1)
		b.Jmp("ry_sph")
		// Shade the closest hit, if any.
		b.Label("ry_shade")
		b.Li(r9, -1)
		b.Beq(r5, r9, "ry_pxnext")
		b.Shli(r6, r5, 5)
		b.La(r7, "SPH")
		b.Add(r7, r7, r6)
		b.Fld(1, r7, 0)
		b.Fld(2, r7, 8)
		b.Fld(3, r7, 16)
		b.Fld(4, r7, 24)
		b.La(r8, "LIGHT")
		// lum = ((d*t - c)/r) . L, accumulated per component.
		b.Fmul(5, 10, 13)
		b.Fsub(5, 5, 1)
		b.Fdiv(5, 5, 4)
		b.Fld(6, r8, 0)
		b.Fmul(5, 5, 6)
		b.Fmul(6, 11, 13)
		b.Fsub(6, 6, 2)
		b.Fdiv(6, 6, 4)
		b.Fld(1, r8, 8)
		b.Fmul(6, 6, 1)
		b.Fadd(5, 5, 6)
		b.Fmul(6, 12, 13)
		b.Fsub(6, 6, 3)
		b.Fdiv(6, 6, 4)
		b.Fld(1, r8, 16)
		b.Fmul(6, 6, 1)
		b.Fadd(5, 5, 6)
		// if lum > 0: acc += lum
		b.Flt(r6, 0, 5)
		b.Li(r9, 0)
		b.Beq(r6, r9, "ry_pxnext")
		b.Fadd(7, 7, 5)
		b.Label("ry_pxnext")
		b.Addi(r12, r12, 1)
		b.Jmp("ry_px")
		b.Label("ry_rownext")
		b.Addi(r10, r10, 1)
		b.Jmp("ry_row")
		b.Label("ry_done")
		b.Shli(r6, r13, 3)
		b.La(r7, "PART")
		b.Add(r6, r7, r6)
		b.Fst(7, r6, 0)
		b.Epilog(r10, r11, r12, r13)

		b.DataF64("SPH", sph...)
		b.DataF64("LIGHT", light[0], light[1], light[2])
		b.BSS("PART", uint64(nc*8))
	},
	ref: func(p rayParams) float64 {
		sph, light := raySceneData()
		part := make([]float64, chunks(p.h, p.grain))
		eachChunk(p.h, p.grain, func(c, lo, hi int) {
			acc := 0.0
			for py := lo; py < hi; py++ {
				for px := 0; px < int(p.w); px++ {
					u := float64((float64(px)+0.5)*(2.0/float64(p.w))) - 1.0
					v := float64((float64(py)+0.5)*(2.0/float64(p.h))) - 1.0
					length := math.Sqrt(float64(u*u) + float64(v*v) + 1.0)
					inv := 1.0 / length
					dx, dy, dz := u*inv, v*inv, inv
					tbest := math.Inf(1)
					kbest := -1
					for k := 0; k < raySpheres; k++ {
						cx, cy, cz, r := sph[k*4], sph[k*4+1], sph[k*4+2], sph[k*4+3]
						bq := float64(dx*cx) + float64(dy*cy) + float64(dz*cz)
						cc := float64(cx*cx) + float64(cy*cy) + float64(cz*cz) - float64(r*r)
						disc := float64(bq*bq) - cc
						if disc <= 0 {
							continue
						}
						t := bq - math.Sqrt(disc)
						if t <= 0.001 || t >= tbest {
							continue
						}
						tbest = t
						kbest = k
					}
					if kbest < 0 {
						continue
					}
					cx, cy, cz, r := sph[kbest*4], sph[kbest*4+1], sph[kbest*4+2], sph[kbest*4+3]
					lum := float64((float64(dx*tbest) - cx) / r * light[0])
					lum += float64((float64(dy*tbest) - cy) / r * light[1])
					lum += float64((float64(dz*tbest) - cz) / r * light[2])
					if lum > 0 {
						acc += lum
					}
				}
			}
			part[c] = acc
		})
		return sumF64(part)
	},
})
