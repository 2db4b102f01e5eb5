package core

import (
	"math"
	"math/rand"
	"testing"

	"misp/internal/asm"
	"misp/internal/isa"
)

// Differential interpreter test: random straight-line arithmetic
// programs are executed by the simulator and by an independent Go
// evaluator; the final register files must match bit-for-bit.

// diffOps is the opcode population, drawn from the opcode table: every
// pure opcode that computes rd from register or immediate operands. The
// other pure opcodes stay out: a straight-line program has no use for a
// control transfer, and nop, pause, fence, rdtsc and gettp have no
// operand to differ on.
var diffOps = func() []isa.Op {
	var ops []isa.Op
	for op := isa.Op(0); isa.Valid(op); op++ {
		switch info := isa.Lookup(op); info.Fmt {
		case isa.FmtR3, isa.FmtR2I, isa.FmtRI, isa.FmtF3, isa.FmtF2, isa.FmtFCmp, isa.FmtFI, isa.FmtIF:
			if info.Class == isa.ClassPure {
				ops = append(ops, op)
			}
		}
	}
	return ops
}()

// evalRef executes one instruction on the reference state. Its semantics
// are its own; an opcode it has no arm for fails the test.
func evalRef(t *testing.T, in isa.Instr, r *[16]uint64, f *[16]float64) {
	imm := int64(in.Imm)
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	switch in.Op {
	case isa.OpAdd:
		r[in.Rd] = r[in.Rs1] + r[in.Rs2]
	case isa.OpSub:
		r[in.Rd] = r[in.Rs1] - r[in.Rs2]
	case isa.OpMul:
		r[in.Rd] = r[in.Rs1] * r[in.Rs2]
	case isa.OpAnd:
		r[in.Rd] = r[in.Rs1] & r[in.Rs2]
	case isa.OpOr:
		r[in.Rd] = r[in.Rs1] | r[in.Rs2]
	case isa.OpXor:
		r[in.Rd] = r[in.Rs1] ^ r[in.Rs2]
	case isa.OpShl:
		r[in.Rd] = r[in.Rs1] << (r[in.Rs2] & 63)
	case isa.OpShr:
		r[in.Rd] = r[in.Rs1] >> (r[in.Rs2] & 63)
	case isa.OpSar:
		r[in.Rd] = uint64(int64(r[in.Rs1]) >> (r[in.Rs2] & 63))
	case isa.OpSlt:
		r[in.Rd] = b2u(int64(r[in.Rs1]) < int64(r[in.Rs2]))
	case isa.OpSltu:
		r[in.Rd] = b2u(r[in.Rs1] < r[in.Rs2])
	case isa.OpAddi:
		r[in.Rd] = r[in.Rs1] + uint64(imm)
	case isa.OpMuli:
		r[in.Rd] = r[in.Rs1] * uint64(imm)
	case isa.OpAndi:
		r[in.Rd] = r[in.Rs1] & uint64(imm)
	case isa.OpOri:
		r[in.Rd] = r[in.Rs1] | uint64(imm)
	case isa.OpXori:
		r[in.Rd] = r[in.Rs1] ^ uint64(imm)
	case isa.OpShli:
		r[in.Rd] = r[in.Rs1] << (uint64(imm) & 63)
	case isa.OpShri:
		r[in.Rd] = r[in.Rs1] >> (uint64(imm) & 63)
	case isa.OpSari:
		r[in.Rd] = uint64(int64(r[in.Rs1]) >> (uint64(imm) & 63))
	case isa.OpSlti:
		r[in.Rd] = b2u(int64(r[in.Rs1]) < imm)
	case isa.OpLdi:
		r[in.Rd] = uint64(imm)
	case isa.OpLdih:
		r[in.Rd] = r[in.Rd]&0xFFFF_FFFF | uint64(in.Imm)<<32
	case isa.OpSeqid:
		// The lone OMS of a one-sequencer machine: its global ID, SID and
		// processor, and the processor's AMS count, are all 0.
		r[in.Rd] = 0
	case isa.OpFadd:
		f[in.Rd] = f[in.Rs1] + f[in.Rs2]
	case isa.OpFsub:
		f[in.Rd] = f[in.Rs1] - f[in.Rs2]
	case isa.OpFmul:
		f[in.Rd] = f[in.Rs1] * f[in.Rs2]
	case isa.OpFdiv:
		f[in.Rd] = f[in.Rs1] / f[in.Rs2]
	case isa.OpFmin:
		f[in.Rd] = math.Min(f[in.Rs1], f[in.Rs2])
	case isa.OpFmax:
		f[in.Rd] = math.Max(f[in.Rs1], f[in.Rs2])
	case isa.OpFsqrt:
		f[in.Rd] = math.Sqrt(f[in.Rs1])
	case isa.OpFabs:
		f[in.Rd] = math.Abs(f[in.Rs1])
	case isa.OpFneg:
		f[in.Rd] = -f[in.Rs1]
	case isa.OpFmov:
		f[in.Rd] = f[in.Rs1]
	case isa.OpFlt:
		r[in.Rd] = b2u(f[in.Rs1] < f[in.Rs2])
	case isa.OpFle:
		r[in.Rd] = b2u(f[in.Rs1] <= f[in.Rs2])
	case isa.OpFeq:
		r[in.Rd] = b2u(f[in.Rs1] == f[in.Rs2])
	case isa.OpItof:
		f[in.Rd] = float64(int64(r[in.Rs1]))
	case isa.OpFtoi:
		r[in.Rd] = uint64(int64(f[in.Rs1]))
	case isa.OpFmvi:
		f[in.Rd] = math.Float64frombits(r[in.Rs1])
	case isa.OpImvf:
		r[in.Rd] = math.Float64bits(f[in.Rs1])
	default:
		t.Fatalf("evalRef has no arm for %s", isa.Name(in.Op))
	}
}

func TestInterpreterDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20060617)) // ISCA'06 started June 17
	const trials = 60
	const length = 120

	for trial := 0; trial < trials; trial++ {
		// Random program over r1..r13 and f0..f15.
		prog := make([]isa.Instr, length)
		for i := range prog {
			op := diffOps[rng.Intn(len(diffOps))]
			prog[i] = isa.Instr{
				Op:  op,
				Rd:  uint8(1 + rng.Intn(13)),
				Rs1: uint8(rng.Intn(14)),
				Rs2: uint8(rng.Intn(14)),
				Imm: int32(rng.Uint32()),
			}
			switch isa.Lookup(op).Fmt {
			case isa.FmtF3, isa.FmtF2, isa.FmtFI:
				prog[i].Rd = uint8(rng.Intn(16)) // full float file
			}
		}

		// Random initial state.
		var regs [16]uint64
		var fregs [16]float64
		for i := 1; i < 14; i++ {
			regs[i] = rng.Uint64()
		}
		for i := 0; i < 16; i++ {
			fregs[i] = math.Float64frombits(rng.Uint64())
		}

		// Reference execution.
		refR, refF := regs, fregs
		for _, in := range prog {
			evalRef(t, in, &refR, &refF)
		}

		// Simulator execution under both run loops: each must match the
		// reference, and the loops must agree with each other exactly.
		b := asm.NewBuilder()
		b.Entry("main")
		b.Label("main")
		for _, in := range prog {
			b.Emit(in)
		}
		b.Halt() // stops the machine with state intact (ring-0 test mode)
		image := b.MustBuild()

		var clocks, steps [2]uint64
		for mode, legacy := range []bool{false, true} {
			cfg := testCfg(0)
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.Oracle = legacy
			if _, err := LoadBare(m, image); err != nil {
				t.Fatal(err)
			}
			oms := m.Procs[0].OMS()
			oms.Regs = regs
			oms.FRegs = fregs
			oms.Ring = isa.Ring0 // allow the final HALT
			if err := m.Run(); err != nil {
				t.Fatalf("trial %d (legacy=%v): %v", trial, legacy, err)
			}
			clocks[mode], steps[mode] = oms.Clock, m.Steps

			for i := 1; i < 14; i++ {
				if oms.Regs[i] != refR[i] {
					t.Fatalf("trial %d (legacy=%v): r%d = %#x, reference %#x", trial, legacy, i, oms.Regs[i], refR[i])
				}
			}
			for i := 0; i < 16; i++ {
				got := math.Float64bits(oms.FRegs[i])
				want := math.Float64bits(refF[i])
				if got != want {
					t.Fatalf("trial %d (legacy=%v): f%d = %#x, reference %#x", trial, legacy, i, got, want)
				}
			}
		}
		if clocks[0] != clocks[1] || steps[0] != steps[1] {
			t.Fatalf("trial %d: loops diverge: clock %d/%d steps %d/%d",
				trial, clocks[0], clocks[1], steps[0], steps[1])
		}
	}
}
