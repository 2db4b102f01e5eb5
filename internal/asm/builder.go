package asm

import (
	"encoding/binary"
	"fmt"
	"math"

	"misp/internal/isa"
)

type fixKind uint8

const (
	fixNone fixKind = iota
	fixRel          // imm <- sym - instruction address (branches, jal)
	fixAbs          // imm <- sym absolute address (la)
)

type slot struct {
	in  isa.Instr
	fix fixKind
	sym string
}

type bssAlloc struct {
	name string
	size uint64
}

// Builder assembles a Program instruction by instruction. Errors are
// accumulated and reported by Build, so call sites stay uncluttered.
//
// Register arguments are isa register numbers (use the isa.R*/isa.SP
// constants); labels are resolved at Build time, and forward references
// are allowed.
type Builder struct {
	textBase uint64
	dataBase uint64
	slots    []slot
	textSyms map[string]int // label -> instruction index
	data     []byte
	dataSyms map[string]uint64 // label -> data offset
	bss      []bssAlloc
	entry    string
	errs     []error
}

// NewBuilder creates a Builder with the default memory layout.
func NewBuilder() *Builder {
	return &Builder{
		textBase: DefaultTextBase,
		dataBase: DefaultDataBase,
		textSyms: make(map[string]int),
		dataSyms: make(map[string]uint64),
	}
}

// Errf records an assembly error.
func (b *Builder) Errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// PC returns the address of the next instruction to be emitted.
func (b *Builder) PC() uint64 { return b.textBase + uint64(len(b.slots))*isa.WordSize }

// Emit appends a raw instruction. Full validation (including patched
// branch offsets) happens again at Build.
func (b *Builder) Emit(in isa.Instr) {
	if err := in.Validate(); err != nil {
		b.errs = append(b.errs, err)
	}
	b.slots = append(b.slots, slot{in: in})
}

func (b *Builder) emitFix(in isa.Instr, kind fixKind, sym string) {
	b.slots = append(b.slots, slot{in: in, fix: kind, sym: sym})
}

// Label binds name to the next instruction address.
func (b *Builder) Label(name string) {
	if _, dup := b.textSyms[name]; dup {
		b.Errf("asm: duplicate label %q", name)
		return
	}
	if _, dup := b.dataSyms[name]; dup {
		b.Errf("asm: label %q already defined in data", name)
		return
	}
	b.textSyms[name] = len(b.slots)
}

// Entry marks the program entry point.
func (b *Builder) Entry(name string) { b.entry = name }

// --- integer ALU -----------------------------------------------------

func (b *Builder) op3(op isa.Op, rd, rs1, rs2 uint8) {
	b.Emit(isa.Instr{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}
func (b *Builder) op2i(op isa.Op, rd, rs1 uint8, imm int32) {
	b.Emit(isa.Instr{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
}

// Add emits rd <- rs1 + rs2.
func (b *Builder) Add(rd, rs1, rs2 uint8) { b.op3(isa.OpAdd, rd, rs1, rs2) }

// Sub emits rd <- rs1 - rs2.
func (b *Builder) Sub(rd, rs1, rs2 uint8) { b.op3(isa.OpSub, rd, rs1, rs2) }

// Mul emits rd <- rs1 * rs2.
func (b *Builder) Mul(rd, rs1, rs2 uint8) { b.op3(isa.OpMul, rd, rs1, rs2) }

// Div emits rd <- rs1 / rs2 (signed).
func (b *Builder) Div(rd, rs1, rs2 uint8) { b.op3(isa.OpDiv, rd, rs1, rs2) }

// Rem emits rd <- rs1 % rs2 (signed).
func (b *Builder) Rem(rd, rs1, rs2 uint8) { b.op3(isa.OpRem, rd, rs1, rs2) }

// And emits rd <- rs1 & rs2.
func (b *Builder) And(rd, rs1, rs2 uint8) { b.op3(isa.OpAnd, rd, rs1, rs2) }

// Or emits rd <- rs1 | rs2.
func (b *Builder) Or(rd, rs1, rs2 uint8) { b.op3(isa.OpOr, rd, rs1, rs2) }

// Xor emits rd <- rs1 ^ rs2.
func (b *Builder) Xor(rd, rs1, rs2 uint8) { b.op3(isa.OpXor, rd, rs1, rs2) }

// Shl emits rd <- rs1 << rs2.
func (b *Builder) Shl(rd, rs1, rs2 uint8) { b.op3(isa.OpShl, rd, rs1, rs2) }

// Shr emits rd <- rs1 >> rs2 (logical).
func (b *Builder) Shr(rd, rs1, rs2 uint8) { b.op3(isa.OpShr, rd, rs1, rs2) }

// Slt emits rd <- (rs1 < rs2), signed.
func (b *Builder) Slt(rd, rs1, rs2 uint8) { b.op3(isa.OpSlt, rd, rs1, rs2) }

// Sltu emits rd <- (rs1 < rs2), unsigned.
func (b *Builder) Sltu(rd, rs1, rs2 uint8) { b.op3(isa.OpSltu, rd, rs1, rs2) }

// Addi emits rd <- rs1 + imm.
func (b *Builder) Addi(rd, rs1 uint8, imm int32) { b.op2i(isa.OpAddi, rd, rs1, imm) }

// Muli emits rd <- rs1 * imm.
func (b *Builder) Muli(rd, rs1 uint8, imm int32) { b.op2i(isa.OpMuli, rd, rs1, imm) }

// Andi emits rd <- rs1 & imm.
func (b *Builder) Andi(rd, rs1 uint8, imm int32) { b.op2i(isa.OpAndi, rd, rs1, imm) }

// Ori emits rd <- rs1 | imm.
func (b *Builder) Ori(rd, rs1 uint8, imm int32) { b.op2i(isa.OpOri, rd, rs1, imm) }

// Xori emits rd <- rs1 ^ imm.
func (b *Builder) Xori(rd, rs1 uint8, imm int32) { b.op2i(isa.OpXori, rd, rs1, imm) }

// Shli emits rd <- rs1 << imm.
func (b *Builder) Shli(rd, rs1 uint8, imm int32) { b.op2i(isa.OpShli, rd, rs1, imm) }

// Shri emits rd <- rs1 >> imm (logical).
func (b *Builder) Shri(rd, rs1 uint8, imm int32) { b.op2i(isa.OpShri, rd, rs1, imm) }

// Sari emits rd <- rs1 >> imm (arithmetic).
func (b *Builder) Sari(rd, rs1 uint8, imm int32) { b.op2i(isa.OpSari, rd, rs1, imm) }

// Slti emits rd <- (rs1 < imm), signed.
func (b *Builder) Slti(rd, rs1 uint8, imm int32) { b.op2i(isa.OpSlti, rd, rs1, imm) }

// Mov emits rd <- rs (pseudo: addi rd, rs, 0).
func (b *Builder) Mov(rd, rs uint8) { b.Addi(rd, rs, 0) }

// Li loads a 64-bit constant, emitting one or two instructions.
func (b *Builder) Li(rd uint8, v int64) {
	lo := int32(v)
	if int64(lo) == v {
		b.Emit(isa.Instr{Op: isa.OpLdi, Rd: rd, Imm: lo})
		return
	}
	b.Emit(isa.Instr{Op: isa.OpLdi, Rd: rd, Imm: lo})
	b.Emit(isa.Instr{Op: isa.OpLdih, Rd: rd, Imm: int32(v >> 32)})
}

// La loads the address of a symbol (text or data label).
func (b *Builder) La(rd uint8, sym string) {
	b.emitFix(isa.Instr{Op: isa.OpLdi, Rd: rd}, fixAbs, sym)
}

// --- memory ----------------------------------------------------------

// Ld emits rd <- mem64[rs1+off].
func (b *Builder) Ld(rd, rs1 uint8, off int32) { b.op2i(isa.OpLdd, rd, rs1, off) }

// St emits mem64[rs1+off] <- rd.
func (b *Builder) St(rd, rs1 uint8, off int32) { b.op2i(isa.OpStd, rd, rs1, off) }

// Ldw emits rd <- sign-extended mem32[rs1+off].
func (b *Builder) Ldw(rd, rs1 uint8, off int32) { b.op2i(isa.OpLdw, rd, rs1, off) }

// Ldwu emits rd <- zero-extended mem32[rs1+off].
func (b *Builder) Ldwu(rd, rs1 uint8, off int32) { b.op2i(isa.OpLdwu, rd, rs1, off) }

// Stw emits mem32[rs1+off] <- rd.
func (b *Builder) Stw(rd, rs1 uint8, off int32) { b.op2i(isa.OpStw, rd, rs1, off) }

// Ldb emits rd <- sign-extended mem8[rs1+off].
func (b *Builder) Ldb(rd, rs1 uint8, off int32) { b.op2i(isa.OpLdb, rd, rs1, off) }

// Ldbu emits rd <- zero-extended mem8[rs1+off].
func (b *Builder) Ldbu(rd, rs1 uint8, off int32) { b.op2i(isa.OpLdbu, rd, rs1, off) }

// Stb emits mem8[rs1+off] <- rd.
func (b *Builder) Stb(rd, rs1 uint8, off int32) { b.op2i(isa.OpStb, rd, rs1, off) }

// Fld emits fd <- memf64[rs1+off].
func (b *Builder) Fld(fd, rs1 uint8, off int32) { b.op2i(isa.OpFld, fd, rs1, off) }

// Fst emits memf64[rs1+off] <- fd.
func (b *Builder) Fst(fd, rs1 uint8, off int32) { b.op2i(isa.OpFst, fd, rs1, off) }

// --- floating point ---------------------------------------------------

// Fadd emits fd <- fs1 + fs2.
func (b *Builder) Fadd(fd, fs1, fs2 uint8) { b.op3(isa.OpFadd, fd, fs1, fs2) }

// Fsub emits fd <- fs1 - fs2.
func (b *Builder) Fsub(fd, fs1, fs2 uint8) { b.op3(isa.OpFsub, fd, fs1, fs2) }

// Fmul emits fd <- fs1 * fs2.
func (b *Builder) Fmul(fd, fs1, fs2 uint8) { b.op3(isa.OpFmul, fd, fs1, fs2) }

// Fdiv emits fd <- fs1 / fs2.
func (b *Builder) Fdiv(fd, fs1, fs2 uint8) { b.op3(isa.OpFdiv, fd, fs1, fs2) }

// Fmin emits fd <- min(fs1, fs2).
func (b *Builder) Fmin(fd, fs1, fs2 uint8) { b.op3(isa.OpFmin, fd, fs1, fs2) }

// Fmax emits fd <- max(fs1, fs2).
func (b *Builder) Fmax(fd, fs1, fs2 uint8) { b.op3(isa.OpFmax, fd, fs1, fs2) }

// Fsqrt emits fd <- sqrt(fs1).
func (b *Builder) Fsqrt(fd, fs1 uint8) { b.op3(isa.OpFsqrt, fd, fs1, 0) }

// Fabs emits fd <- |fs1|.
func (b *Builder) Fabs(fd, fs1 uint8) { b.op3(isa.OpFabs, fd, fs1, 0) }

// Fneg emits fd <- -fs1.
func (b *Builder) Fneg(fd, fs1 uint8) { b.op3(isa.OpFneg, fd, fs1, 0) }

// Fmov emits fd <- fs1.
func (b *Builder) Fmov(fd, fs1 uint8) { b.op3(isa.OpFmov, fd, fs1, 0) }

// Flt emits rd <- (fs1 < fs2).
func (b *Builder) Flt(rd, fs1, fs2 uint8) { b.op3(isa.OpFlt, rd, fs1, fs2) }

// Fle emits rd <- (fs1 <= fs2).
func (b *Builder) Fle(rd, fs1, fs2 uint8) { b.op3(isa.OpFle, rd, fs1, fs2) }

// Feq emits rd <- (fs1 == fs2).
func (b *Builder) Feq(rd, fs1, fs2 uint8) { b.op3(isa.OpFeq, rd, fs1, fs2) }

// Itof emits fd <- float64(int64(rs1)).
func (b *Builder) Itof(fd, rs1 uint8) { b.op3(isa.OpItof, fd, rs1, 0) }

// Ftoi emits rd <- int64(fs1), truncating.
func (b *Builder) Ftoi(rd, fs1 uint8) { b.op3(isa.OpFtoi, rd, fs1, 0) }

// LiF loads an f64 constant into fd, clobbering integer register rtmp.
func (b *Builder) LiF(fd, rtmp uint8, v float64) {
	b.Li(rtmp, int64(math.Float64bits(v)))
	b.op3(isa.OpFmvi, fd, rtmp, 0)
}

// --- control flow -----------------------------------------------------

func (b *Builder) branch(op isa.Op, rs1, rs2 uint8, label string) {
	b.emitFix(isa.Instr{Op: op, Rs1: rs1, Rs2: rs2}, fixRel, label)
}

// Beq branches to label if rs1 == rs2.
func (b *Builder) Beq(rs1, rs2 uint8, label string) { b.branch(isa.OpBeq, rs1, rs2, label) }

// Bne branches to label if rs1 != rs2.
func (b *Builder) Bne(rs1, rs2 uint8, label string) { b.branch(isa.OpBne, rs1, rs2, label) }

// Blt branches to label if rs1 < rs2 (signed).
func (b *Builder) Blt(rs1, rs2 uint8, label string) { b.branch(isa.OpBlt, rs1, rs2, label) }

// Bge branches to label if rs1 >= rs2 (signed).
func (b *Builder) Bge(rs1, rs2 uint8, label string) { b.branch(isa.OpBge, rs1, rs2, label) }

// Bltu branches to label if rs1 < rs2 (unsigned).
func (b *Builder) Bltu(rs1, rs2 uint8, label string) { b.branch(isa.OpBltu, rs1, rs2, label) }

// Bgeu branches to label if rs1 >= rs2 (unsigned).
func (b *Builder) Bgeu(rs1, rs2 uint8, label string) { b.branch(isa.OpBgeu, rs1, rs2, label) }

// Jmp jumps to label.
func (b *Builder) Jmp(label string) { b.emitFix(isa.Instr{Op: isa.OpJmp}, fixRel, label) }

// Call calls label, linking through LR.
func (b *Builder) Call(label string) {
	b.emitFix(isa.Instr{Op: isa.OpJal, Rd: isa.LR}, fixRel, label)
}

// CallR calls the address in rs1, linking through LR.
func (b *Builder) CallR(rs1 uint8) { b.Emit(isa.Instr{Op: isa.OpJalr, Rd: isa.LR, Rs1: rs1}) }

// Jr jumps to the address in rs1.
func (b *Builder) Jr(rs1 uint8) { b.Emit(isa.Instr{Op: isa.OpJr, Rs1: rs1}) }

// Ret returns via LR.
func (b *Builder) Ret() { b.Jr(isa.LR) }

// --- stack and frames ---------------------------------------------------

// Push stores regs to the stack, adjusting SP once.
func (b *Builder) Push(regs ...uint8) {
	n := int32(len(regs))
	b.Addi(isa.SP, isa.SP, -8*n)
	for i, r := range regs {
		b.St(r, isa.SP, int32(i)*8)
	}
}

// Pop restores regs pushed by Push (same order).
func (b *Builder) Pop(regs ...uint8) {
	for i, r := range regs {
		b.Ld(r, isa.SP, int32(i)*8)
	}
	b.Addi(isa.SP, isa.SP, 8*int32(len(regs)))
}

// Prolog pushes LR plus the given callee-saved registers.
func (b *Builder) Prolog(saved ...uint8) { b.Push(append([]uint8{isa.LR}, saved...)...) }

// Epilog pops what Prolog pushed and returns.
func (b *Builder) Epilog(saved ...uint8) {
	b.Pop(append([]uint8{isa.LR}, saved...)...)
	b.Ret()
}

// --- system and MISP ----------------------------------------------------

// Syscall emits a SYSCALL (number already in r0).
func (b *Builder) Syscall() { b.Emit(isa.Instr{Op: isa.OpSyscall}) }

// SyscallN loads n into r0 and emits SYSCALL.
func (b *Builder) SyscallN(n int64) {
	b.Li(isa.RRet, n)
	b.Syscall()
}

// Nop emits a NOP.
func (b *Builder) Nop() { b.Emit(isa.Instr{Op: isa.OpNop}) }

// Pause emits a spin-wait hint.
func (b *Builder) Pause() { b.Emit(isa.Instr{Op: isa.OpPause}) }

// Fence emits a memory fence.
func (b *Builder) Fence() { b.Emit(isa.Instr{Op: isa.OpFence}) }

// Seqid emits rd <- sequencer ID.
func (b *Builder) Seqid(rd uint8) { b.Emit(isa.Instr{Op: isa.OpSeqid, Rd: rd}) }

// Rdtsc emits rd <- local cycle counter.
func (b *Builder) Rdtsc(rd uint8) { b.Emit(isa.Instr{Op: isa.OpRdtsc, Rd: rd}) }

// Axchg emits rd <- mem[rs1]; mem[rs1] <- rs2 atomically.
func (b *Builder) Axchg(rd, rs1, rs2 uint8) { b.op3(isa.OpAxchg, rd, rs1, rs2) }

// Acas emits compare-and-swap: expected in rd, new value in rs2.
func (b *Builder) Acas(rd, rs1, rs2 uint8) { b.op3(isa.OpAcas, rd, rs1, rs2) }

// Aadd emits atomic fetch-add.
func (b *Builder) Aadd(rd, rs1, rs2 uint8) { b.op3(isa.OpAadd, rd, rs1, rs2) }

// Settp emits thread-pointer write: tp <- rs1.
func (b *Builder) Settp(rs1 uint8) { b.Emit(isa.Instr{Op: isa.OpSettp, Rs1: rs1}) }

// Gettp emits thread-pointer read: rd <- tp.
func (b *Builder) Gettp(rd uint8) { b.Emit(isa.Instr{Op: isa.OpGettp, Rd: rd}) }

// Signal emits SIGNAL sid=rd, ip=rs1, sp=rs2 (§2.4).
func (b *Builder) Signal(sid, ip, sp uint8) { b.op3(isa.OpSignal, sid, ip, sp) }

// Setyield registers handler (address in rs1) for scenario (§2.4).
func (b *Builder) Setyield(rs1 uint8, scenario isa.Scenario) {
	b.Emit(isa.Instr{Op: isa.OpSetyield, Rs1: rs1, Imm: int32(scenario)})
}

// Sret returns from a yield/proxy handler.
func (b *Builder) Sret() { b.Emit(isa.Instr{Op: isa.OpSret}) }

// Savectx saves the user context frame to mem[rs1].
func (b *Builder) Savectx(rs1 uint8) { b.Emit(isa.Instr{Op: isa.OpSavectx, Rs1: rs1}) }

// Ldctx loads the user context frame from mem[rs1].
func (b *Builder) Ldctx(rs1 uint8) { b.Emit(isa.Instr{Op: isa.OpLdctx, Rs1: rs1}) }

// Proxyexec performs proxy execution of the context saved at mem[rs1] (§2.5).
func (b *Builder) Proxyexec(rs1 uint8) { b.Emit(isa.Instr{Op: isa.OpProxyexec, Rs1: rs1}) }

// Halt emits HALT (privileged; tests only).
func (b *Builder) Halt() { b.Emit(isa.Instr{Op: isa.OpHalt}) }

// Brk emits a breakpoint trap.
func (b *Builder) Brk() { b.Emit(isa.Instr{Op: isa.OpBrk}) }

// --- data section -------------------------------------------------------

func (b *Builder) defDataSym(name string, off uint64) {
	if name == "" {
		return
	}
	if _, dup := b.dataSyms[name]; dup {
		b.Errf("asm: duplicate data symbol %q", name)
		return
	}
	if _, dup := b.textSyms[name]; dup {
		b.Errf("asm: data symbol %q already defined as label", name)
		return
	}
	b.dataSyms[name] = off
}

func (b *Builder) alignData(n int) {
	if r := len(b.data) % n; r != 0 {
		b.data = append(b.data, make([]byte, n-r)...)
	}
}

// AlignData pads the data segment to an n-byte boundary.
func (b *Builder) AlignData(n int) { b.alignData(n) }

// DataLabel binds name to the current data offset without emitting
// bytes (used by the text assembler where a label precedes directives).
func (b *Builder) DataLabel(name string) { b.defDataSym(name, uint64(len(b.data))) }

// DataBytes places raw bytes in the data segment and returns nothing;
// address is resolved via the symbol at Build time.
func (b *Builder) DataBytes(name string, v []byte) {
	b.defDataSym(name, uint64(len(b.data)))
	b.data = append(b.data, v...)
}

// DataU64 places 64-bit words in the data segment.
func (b *Builder) DataU64(name string, vals ...uint64) {
	b.alignData(8)
	b.defDataSym(name, uint64(len(b.data)))
	for _, v := range vals {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], v)
		b.data = append(b.data, w[:]...)
	}
}

// DataF64 places f64 values in the data segment.
func (b *Builder) DataF64(name string, vals ...float64) {
	u := make([]uint64, len(vals))
	for i, v := range vals {
		u[i] = math.Float64bits(v)
	}
	b.DataU64(name, u...)
}

// Asciiz places a NUL-terminated string in the data segment.
func (b *Builder) Asciiz(name, s string) {
	b.defDataSym(name, uint64(len(b.data)))
	b.data = append(b.data, s...)
	b.data = append(b.data, 0)
}

// BSS reserves size zero-initialized bytes (8-byte aligned, no image
// backing) and binds name to the start.
func (b *Builder) BSS(name string, size uint64) {
	if size == 0 {
		b.Errf("asm: BSS %q has zero size", name)
		return
	}
	b.bss = append(b.bss, bssAlloc{name, (size + 7) &^ 7})
}

// --- link ----------------------------------------------------------------

// Build resolves all symbols and returns the linked Program.
func (b *Builder) Build() (*Program, error) {
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("asm: %d errors, first: %w", len(b.errs), b.errs[0])
	}
	syms := make(map[string]uint64, len(b.textSyms)+len(b.dataSyms)+len(b.bss))
	for n, idx := range b.textSyms {
		syms[n] = b.textBase + uint64(idx)*isa.WordSize
	}
	b.alignData(8)
	for n, off := range b.dataSyms {
		syms[n] = b.dataBase + off
	}
	bssStart := b.dataBase + uint64(len(b.data))
	var bssSize uint64
	for _, a := range b.bss {
		if _, dup := syms[a.name]; dup {
			return nil, fmt.Errorf("asm: duplicate BSS symbol %q", a.name)
		}
		syms[a.name] = bssStart + bssSize
		bssSize += a.size
	}

	text := make([]byte, len(b.slots)*isa.WordSize)
	for i, s := range b.slots {
		addr := b.textBase + uint64(i)*isa.WordSize
		in := s.in
		switch s.fix {
		case fixRel:
			target, ok := syms[s.sym]
			if !ok {
				return nil, fmt.Errorf("asm: undefined label %q at 0x%x", s.sym, addr)
			}
			d := int64(target) - int64(addr)
			if int64(int32(d)) != d {
				return nil, fmt.Errorf("asm: branch to %q out of range", s.sym)
			}
			in.Imm = int32(d)
		case fixAbs:
			target, ok := syms[s.sym]
			if !ok {
				return nil, fmt.Errorf("asm: undefined symbol %q at 0x%x", s.sym, addr)
			}
			if target >= 1<<31 {
				return nil, fmt.Errorf("asm: symbol %q at 0x%x exceeds la range", s.sym, target)
			}
			in.Imm = int32(target)
		}
		if err := in.Validate(); err != nil {
			return nil, fmt.Errorf("asm: instruction %d: %w", i, err)
		}
		binary.LittleEndian.PutUint64(text[i*isa.WordSize:], in.Encode())
	}

	entry := b.textBase
	if b.entry != "" {
		e, ok := syms[b.entry]
		if !ok {
			return nil, fmt.Errorf("asm: undefined entry symbol %q", b.entry)
		}
		entry = e
	}
	return &Program{
		TextBase: b.textBase,
		DataBase: b.dataBase,
		Text:     text,
		Data:     append([]byte(nil), b.data...),
		BSS:      bssSize,
		Entry:    entry,
		Symbols:  syms,
	}, nil
}

// MustBuild is Build that panics on error; for tests and fixed runtimes.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
