package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(op uint8, rd, rs1, rs2 uint8, imm int32) bool {
		in := Instr{Op: Op(op), Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm}
		out := Decode(in.Encode())
		return in == out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeAllOpcodes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for op := Op(0); int(op) < NumOps; op++ {
		for k := 0; k < 16; k++ {
			in := Instr{
				Op:  op,
				Rd:  uint8(rng.Intn(NumRegs)),
				Rs1: uint8(rng.Intn(NumRegs)),
				Rs2: uint8(rng.Intn(NumRegs)),
				Imm: int32(rng.Uint32()),
			}
			if got := Decode(in.Encode()); got != in {
				t.Fatalf("%s: round trip mismatch: %+v != %+v", Name(op), got, in)
			}
		}
	}
}

// TestInfoTableComplete also holds each row's class, access size and
// sign extension to one another and to its format. What the class says
// an opcode does is held to the core's interpreter in internal/core.
func TestInfoTableComplete(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		info := Lookup(op)
		if info.Name == "" {
			t.Errorf("opcode %d has no Info entry", op)
		}
		if info.Cost == 0 {
			t.Errorf("opcode %s has zero cost", info.Name)
		}
		if info.Class > ClassPure {
			t.Errorf("%s: undefined class %d", info.Name, info.Class)
		}
		load, store := info.Class == ClassLoad, info.Class == ClassStore
		switch {
		case info.Class == ClassAtomic && info.Size != 8:
			t.Errorf("%s: atomic of size %d, want 8", info.Name, info.Size)
		case load || store:
			if info.Size != 1 && info.Size != 2 && info.Size != 4 && info.Size != 8 {
				t.Errorf("%s: access size %d", info.Name, info.Size)
			}
		case info.Class != ClassAtomic && info.Size != 0:
			t.Errorf("%s: class %d moves no bytes but has size %d", info.Name, info.Class, info.Size)
		}
		if info.Signed && (!load || info.Size == 8) {
			t.Errorf("%s: only a load narrower than a register sign-extends", info.Name)
		}
		// The compiled micro-op holds an inline opcode's cost in a byte.
		if info.Class.Inline() && info.Cost > 255 {
			t.Errorf("%s: inline with cost %d", info.Name, info.Cost)
		}
		if mem := info.Fmt == FmtMem || info.Fmt == FmtFMem; mem != (load || store) {
			t.Errorf("%s: format %d with class %d", info.Name, info.Fmt, info.Class)
		}
	}
}

func TestByNameBijective(t *testing.T) {
	if len(ByName) != NumOps {
		t.Fatalf("ByName has %d entries, want %d (duplicate mnemonic?)", len(ByName), NumOps)
	}
	for name, op := range ByName {
		if Name(op) != name {
			t.Errorf("ByName[%q] = %v but Name(%v) = %q", name, op, op, Name(op))
		}
	}
}

func TestValidate(t *testing.T) {
	good := Instr{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("valid instruction rejected: %v", err)
	}
	cases := []Instr{
		{Op: Op(200)},                       // bad opcode
		{Op: OpAdd, Rd: 16},                 // register out of range
		{Op: OpAdd, Rs1: 255},               // register out of range
		{Op: OpJmp, Imm: 12},                // unaligned branch offset
		{Op: OpBeq, Rs1: 1, Rs2: 2, Imm: 4}, // unaligned branch offset
	}
	for _, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("invalid instruction accepted: %+v", c)
		}
	}
	// Aligned branch offsets pass.
	br := Instr{Op: OpBeq, Rs1: 1, Rs2: 2, Imm: -16}
	if err := br.Validate(); err != nil {
		t.Errorf("aligned branch rejected: %v", err)
	}
}

func TestPrivilegedOpcodes(t *testing.T) {
	priv := []Op{OpHalt, OpIret, OpMovtcr, OpMovfcr, OpHlt, OpInvlpg, OpTlbflush}
	for _, op := range priv {
		if !Lookup(op).Priv {
			t.Errorf("%s should be privileged", Name(op))
		}
	}
	// A fast path runs an inline opcode without the ring check.
	for op := Op(0); int(op) < NumOps; op++ {
		if info := Lookup(op); info.Priv && info.Class.Inline() {
			t.Errorf("%s is privileged but of inline class %d", info.Name, info.Class)
		}
	}
	// The MISP extension is explicitly user-level (the whole point of the
	// paper: a user-level dual of the IPI).
	user := []Op{OpSignal, OpSetyield, OpSret, OpSavectx, OpLdctx, OpProxyexec}
	for _, op := range user {
		if Lookup(op).Priv {
			t.Errorf("%s must be usable from ring 3", Name(op))
		}
	}
}

func TestDisasmCoversAllFormats(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		i := Instr{Op: op, Rd: 1, Rs1: 2, Rs2: 3, Imm: 8}
		s := Disasm(i, 0x1000)
		if s == "" || !strings.HasPrefix(s, Name(op)) {
			t.Errorf("Disasm(%s) = %q", Name(op), s)
		}
	}
}

func TestDisasmSpecifics(t *testing.T) {
	cases := []struct {
		in   Instr
		pc   uint64
		want string
	}{
		{Instr{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3}, 0, "add r1, r2, r3"},
		{Instr{Op: OpLdd, Rd: 4, Rs1: SP, Imm: -8}, 0, "ldd r4, [sp-8]"},
		{Instr{Op: OpBeq, Rs1: 1, Rs2: 2, Imm: 16}, 0x100, "beq r1, r2, 0x110"},
		{Instr{Op: OpJmp, Imm: -8}, 0, "jmp .-8"},
		{Instr{Op: OpSignal, Rd: 1, Rs1: 2, Rs2: 3}, 0, "signal r1, r2, r3"},
		{Instr{Op: OpSetyield, Rs1: 4, Imm: 0}, 0, "setyield r4, 0"},
		{Instr{Op: OpMovtcr, Rs1: 7, Imm: 3}, 0, "movtcr cr3, r7"},
		{Instr{Op: OpFadd, Rd: 0, Rs1: 1, Rs2: 2}, 0, "fadd f0, f1, f2"},
		{Instr{Op: OpJr, Rs1: LR}, 0, "jr lr"},
	}
	for _, c := range cases {
		if got := Disasm(c.in, c.pc); got != c.want {
			t.Errorf("Disasm(%+v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCtxLayout(t *testing.T) {
	if CtxSize != 16*8+16*8+8+8+8+8 {
		t.Errorf("CtxSize = %d, inconsistent with field offsets", CtxSize)
	}
	if CtxFRegs != 128 || CtxPC != 256 || CtxTP != 264 || CtxTrap != 272 || CtxTInfo != 280 {
		t.Errorf("context layout drifted: fregs=%d pc=%d tp=%d trap=%d tinfo=%d",
			CtxFRegs, CtxPC, CtxTP, CtxTrap, CtxTInfo)
	}
}

func TestTrapAndSysNames(t *testing.T) {
	if TrapPageFault.String() != "pagefault" || TrapSyscall.String() != "syscall" {
		t.Error("trap names wrong")
	}
	if SysName(SysWrite) != "write" || SysName(999) != "sys?" {
		t.Error("syscall names wrong")
	}
	if ScenarioProxy.String() != "proxy" || ScenarioSignal.String() != "signal" {
		t.Error("scenario names wrong")
	}
}
