package workloads

import (
	"misp/internal/asm"
	"misp/internal/isa"
	"misp/internal/shredlib"
)

// spin: the single-threaded competing process of the Figure 7
// multiprogramming experiment. It uses no runtime at all — it is the
// "legacy single-threaded application" that must share the OMS with a
// shredded application.

var _ = define(def[int64]{
	name:  "spin",
	suite: "-",
	bare:  true,
	sizes: [numSizes]int64{
		SizeTest:  50_000,
		SizeSmall: 500_000,
		SizeRef:   5_000_000,
	},
	emit: func(b *asm.Builder, iters int64) {
		b.Entry("main")
		b.Label("main")
		b.Li(r10, iters)
		b.Li(r9, 0)
		b.Label("sp_loop")
		b.Addi(r10, r10, -1)
		b.Bne(r10, r9, "sp_loop")
		b.Li(r6, shredlib.ResultAddr)
		b.St(r9, r6, 0) // checksum 0.0
		b.Li(r1, 0)
		b.Li(r0, isa.SysExit)
		b.Syscall()
	},
	ref: func(int64) float64 { return 0 },
})

// SpinForever builds the endless variant used as background load: it
// never exits and is stopped by the experiment's StopPredicate.
func SpinForever() *asm.Program {
	b := asm.NewBuilder()
	b.Entry("main")
	b.Label("main")
	b.Li(r10, 0)
	b.Label("fv_loop")
	b.Addi(r10, r10, 1)
	b.Jmp("fv_loop")
	return b.MustBuild()
}
