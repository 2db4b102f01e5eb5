// Package isa defines SVM-32, the instruction set architecture of the
// simulated MISP machine: opcodes, instruction encoding, register
// conventions, trap and scenario identifiers, the per-instruction cycle
// cost model, and the architectural context-frame layout used by the
// MISP SAVECTX/LDCTX/PROXYEXEC mechanisms.
//
// SVM-32 is a 64-bit register machine with a fixed 8-byte instruction
// word. It stands in for the paper's IA-32 vehicle: the MISP
// contribution (sequencers, SIGNAL, YIELD-CONDITIONAL, proxy execution)
// is ISA-family-agnostic, so the reproduction defines the canonical
// sequencer-aware extension on top of a compact base ISA instead of
// modelling x86 semantics.
package isa

import "fmt"

// Op is an SVM-32 opcode.
type Op uint8

// Opcodes. The comment gives the assembler mnemonic and operand format.
const (
	OpNop   Op = iota // nop
	OpHalt            // halt            (privileged: stop the machine)
	OpBrk             // brk             (debug breakpoint trap)
	OpPause           // pause           (spin-wait hint)
	OpFence           // fence           (memory ordering; a cost point only)
	OpRdtsc           // rdtsc rd        (rd <- local cycle counter)
	OpSeqid           // seqid rd, kind  (rd <- ID; kind: 0 global, 1 local SID, 2 proc, 3 AMS count)

	// Integer ALU, register-register: rd <- rs1 OP rs2.
	OpAdd  // add rd, rs1, rs2
	OpSub  // sub rd, rs1, rs2
	OpMul  // mul rd, rs1, rs2
	OpDiv  // div rd, rs1, rs2   (signed; divide by zero traps)
	OpRem  // rem rd, rs1, rs2   (signed; divide by zero traps)
	OpAnd  // and rd, rs1, rs2
	OpOr   // or rd, rs1, rs2
	OpXor  // xor rd, rs1, rs2
	OpShl  // shl rd, rs1, rs2
	OpShr  // shr rd, rs1, rs2   (logical)
	OpSar  // sar rd, rs1, rs2   (arithmetic)
	OpSlt  // slt rd, rs1, rs2   (rd <- rs1 < rs2, signed)
	OpSltu // sltu rd, rs1, rs2  (rd <- rs1 < rs2, unsigned)

	// Integer ALU, register-immediate: rd <- rs1 OP imm (imm sign-extended).
	OpAddi // addi rd, rs1, imm
	OpMuli // muli rd, rs1, imm
	OpAndi // andi rd, rs1, imm
	OpOri  // ori rd, rs1, imm
	OpXori // xori rd, rs1, imm
	OpShli // shli rd, rs1, imm
	OpShri // shri rd, rs1, imm
	OpSari // sari rd, rs1, imm
	OpSlti // slti rd, rs1, imm

	OpLdi  // ldi rd, imm        (rd <- sign-extended imm32)
	OpLdih // ldih rd, imm       (rd <- (rd & 0xFFFFFFFF) | imm<<32)

	// Loads: rd <- mem[rs1+imm]. U suffix = zero-extend, else sign-extend.
	OpLdb  // ldb rd, [rs1+imm]
	OpLdbu // ldbu rd, [rs1+imm]
	OpLdh  // ldh rd, [rs1+imm]
	OpLdhu // ldhu rd, [rs1+imm]
	OpLdw  // ldw rd, [rs1+imm]
	OpLdwu // ldwu rd, [rs1+imm]
	OpLdd  // ldd rd, [rs1+imm]

	// Stores: mem[rs1+imm] <- rd (low bytes).
	OpStb // stb rd, [rs1+imm]
	OpSth // sth rd, [rs1+imm]
	OpStw // stw rd, [rs1+imm]
	OpStd // std rd, [rs1+imm]

	// Floating point (f64). Register file f0..f15.
	OpFld   // fld fd, [rs1+imm]
	OpFst   // fst fd, [rs1+imm]
	OpFadd  // fadd fd, fs1, fs2
	OpFsub  // fsub fd, fs1, fs2
	OpFmul  // fmul fd, fs1, fs2
	OpFdiv  // fdiv fd, fs1, fs2
	OpFmin  // fmin fd, fs1, fs2
	OpFmax  // fmax fd, fs1, fs2
	OpFsqrt // fsqrt fd, fs1
	OpFabs  // fabs fd, fs1
	OpFneg  // fneg fd, fs1
	OpFmov  // fmov fd, fs1
	OpFlt   // flt rd, fs1, fs2   (rd <- fs1 < fs2)
	OpFle   // fle rd, fs1, fs2
	OpFeq   // feq rd, fs1, fs2
	OpItof  // itof fd, rs1       (signed int -> f64)
	OpFtoi  // ftoi rd, fs1       (f64 -> signed int, truncating)
	OpFmvi  // fmvi fd, rs1       (raw bit move int reg -> float reg)
	OpImvf  // imvf rd, fs1       (raw bit move float reg -> int reg)

	// Control flow. Branch/jump immediates are byte offsets relative to
	// the *current* instruction address; they must be multiples of 8.
	OpJmp  // jmp imm
	OpJal  // jal rd, imm        (rd <- pc+8; pc <- pc+imm)
	OpJr   // jr rs1             (pc <- rs1)
	OpJalr // jalr rd, rs1       (rd <- pc+8; pc <- rs1)
	OpBeq  // beq rs1, rs2, imm
	OpBne  // bne rs1, rs2, imm
	OpBlt  // blt rs1, rs2, imm  (signed)
	OpBge  // bge rs1, rs2, imm  (signed)
	OpBltu // bltu rs1, rs2, imm
	OpBgeu // bgeu rs1, rs2, imm

	// Atomics (64-bit, on the address in rs1). Exactly one instruction
	// commits at a time machine-wide, so these are architecturally atomic.
	OpAxchg // axchg rd, rs1, rs2  (rd <- mem[rs1]; mem[rs1] <- rs2)
	OpAcas  // acas rd, rs1, rs2   (t <- mem[rs1]; if t == rd {mem[rs1] <- rs2}; rd <- t)
	OpAadd  // aadd rd, rs1, rs2   (rd <- mem[rs1]; mem[rs1] <- rd + rs2)

	// System.
	OpSyscall  // syscall            (number in r0, args in r1..r5, result in r0)
	OpIret     // iret               (privileged)
	OpMovtcr   // movtcr cr=imm, rs1 (privileged: control register write)
	OpMovfcr   // movfcr rd, cr=imm  (privileged: control register read)
	OpHlt      // hlt                (privileged: idle until interrupt)
	OpInvlpg   // invlpg rs1         (privileged: invalidate one TLB entry)
	OpTlbflush // tlbflush          (privileged: flush entire TLB)

	// MISP extension (user level, the paper's canonical sequencer-aware set).
	OpSettp // settp rs1          (thread pointer <- rs1; the per-context TLS base, saved/restored with the context like x86 FS/GS)
	OpGettp // gettp rd           (rd <- thread pointer)

	OpSignal    // signal rd, rs1, rs2  (SID in rd, shred IP in rs1, SP in rs2; §2.4)
	OpSetyield  // setyield rs1, imm    (register handler at address rs1 for scenario imm; YIELD-CONDITIONAL, §2.4)
	OpSret      // sret                 (return from a yield/proxy handler to the interrupted shred)
	OpSavectx   // savectx rs1          (save user context frame to mem[rs1])
	OpLdctx     // ldctx rs1            (load user context frame from mem[rs1]; continues at frame PC)
	OpProxyexec // proxyexec rs1        (OMS only: impersonate the AMS context saved at mem[rs1], re-execute its faulting instruction incl. the ring-0 service, write the advanced context back; §2.5)

	opCount // sentinel
)

// NumOps is the number of defined opcodes.
const NumOps = int(opCount)

// Fmt names the operand format of an opcode; formats lists the
// operands of each.
type Fmt uint8

const (
	FmtNone Fmt = iota
	FmtRd
	FmtR2
	FmtR3
	FmtR2I
	FmtRI
	FmtMem
	FmtF3
	FmtF2
	FmtFMem
	FmtFCmp
	FmtFI
	FmtIF
	FmtJmp
	FmtJal
	FmtR1
	FmtBranch
	FmtCRW
	FmtCRR
	FmtSig
	FmtYield
)

// OperandKind says how an operand is written in assembler text.
type OperandKind uint8

const (
	OpndReg    OperandKind = iota // integer register: r0..r13, lr, sp
	OpndFReg                      // float register: f0..f15
	OpndImm                       // signed imm32 in Imm
	OpndMem                       // [rs1±imm]: base register in Rs1, offset in Imm
	OpndCR                        // control register crN, N in Imm
	OpndTarget                    // branch target: a byte offset from the instruction, in Imm
)

// RegField names the Instr field a register operand fills.
type RegField uint8

const (
	FieldRd RegField = iota
	FieldRs1
	FieldRs2
)

// Operand is one operand of an instruction format: how it is written
// and, for a register, which field holds it.
type Operand struct {
	Kind OperandKind
	Reg  RegField // OpndReg and OpndFReg only
}

var (
	rd     = Operand{OpndReg, FieldRd}
	rs1    = Operand{OpndReg, FieldRs1}
	rs2    = Operand{OpndReg, FieldRs2}
	fd     = Operand{OpndFReg, FieldRd}
	fs1    = Operand{OpndFReg, FieldRs1}
	fs2    = Operand{OpndFReg, FieldRs2}
	imm    = Operand{Kind: OpndImm}
	mem    = Operand{Kind: OpndMem}
	cr     = Operand{Kind: OpndCR}
	target = Operand{Kind: OpndTarget}
)

// formats lists, for each Fmt, the operands an instruction of that
// format is written with, in order. It is the one statement of the
// assembler syntax: Disasm writes it and the text assembler reads it.
var formats = [...][]Operand{
	FmtNone:   nil,
	FmtRd:     {rd},
	FmtR2:     {rd, rs1},
	FmtR3:     {rd, rs1, rs2},
	FmtR2I:    {rd, rs1, imm},
	FmtRI:     {rd, imm},
	FmtMem:    {rd, mem},
	FmtF3:     {fd, fs1, fs2},
	FmtF2:     {fd, fs1},
	FmtFMem:   {fd, mem},
	FmtFCmp:   {rd, fs1, fs2},
	FmtFI:     {fd, rs1}, // cross-file moves, itof
	FmtIF:     {rd, fs1}, // ftoi, imvf
	FmtJmp:    {target},
	FmtJal:    {rd, target},
	FmtR1:     {rs1},
	FmtBranch: {rs1, rs2, target},
	FmtCRW:    {cr, rs1},
	FmtCRR:    {rd, cr},
	FmtSig:    {rd, rs1, rs2}, // signal: sid, ip, sp
	FmtYield:  {rs1, imm},     // setyield: handler, scenario
}

// Operands returns the operands of format f, in the order they are
// written. The slice is shared: callers must not modify it.
func (f Fmt) Operands() []Operand { return formats[f] }

// Info holds static properties of one opcode: how it is written, what it
// costs, and what executing it touches. It is the one statement of the
// latter, from which the core's fast path takes where each opcode may
// run; the core's interpreter, the reference the table is tested
// against, does not read Class, Size or Signed.
type Info struct {
	Name   string
	Fmt    Fmt
	Cost   uint32 // base cycle cost
	Priv   bool   // requires ring 0
	Class  Class
	Size   uint8 // bytes a load, store or atomic moves; 0 for every other class
	Signed bool  // a load that sign-extends its Size bytes
}

// Class says what executing an opcode may read, write or cause. The order
// is part of the definition: the classes from ClassOrdered on are the
// inline ones, and the last two, which write nothing another sequencer
// reads, are the ones a fast path may retire ahead of the global commit
// order — so one compare selects either set.
type Class uint8

const (
	// ClassInterp: run only by the interpreter — the privileged ops,
	// which trap outside ring 0, brk and syscall, which always trap, and
	// the ops whose effects reach past the sequencer's registers, TP and
	// a few bytes of memory.
	ClassInterp Class = iota
	// ClassEvent: an interpreter-only op that can create or reorder events
	// on another sequencer or stop the machine, so a batch of retirements
	// ends after it.
	ClassEvent
	// ClassOrdered: writes only its own registers or TP, but can trap or
	// writes TP: settp, div, rem.
	ClassOrdered
	// ClassStore writes the low Size bytes of rd at rs1+imm.
	ClassStore
	// ClassAtomic reads the Size bytes at rs1 into rd and may write them.
	ClassAtomic
	// ClassLoad reads the Size bytes at rs1+imm into rd.
	ClassLoad
	// ClassPure reads and writes nothing but its own sequencer's
	// registers, PC and clock (seqid also the fixed topology, gettp the
	// TP), writes at most rd, and cannot trap.
	ClassPure
)

// Inline reports whether a fast path may run an opcode of class c itself
// rather than hand it to the interpreter.
func (c Class) Inline() bool { return c >= ClassOrdered }

var infos = [opCount]Info{
	OpNop:   {"nop", FmtNone, 1, false, ClassPure, 0, false},
	OpHalt:  {"halt", FmtNone, 1, true, ClassEvent, 0, false},
	OpBrk:   {"brk", FmtNone, 1, false, ClassInterp, 0, false},
	OpPause: {"pause", FmtNone, 10, false, ClassPure, 0, false},
	OpFence: {"fence", FmtNone, 4, false, ClassPure, 0, false},
	OpRdtsc: {"rdtsc", FmtRd, 8, false, ClassPure, 0, false},
	OpSeqid: {"seqid", FmtRI, 1, false, ClassPure, 0, false},

	OpAdd:  {"add", FmtR3, 1, false, ClassPure, 0, false},
	OpSub:  {"sub", FmtR3, 1, false, ClassPure, 0, false},
	OpMul:  {"mul", FmtR3, 3, false, ClassPure, 0, false},
	OpDiv:  {"div", FmtR3, 20, false, ClassOrdered, 0, false},
	OpRem:  {"rem", FmtR3, 20, false, ClassOrdered, 0, false},
	OpAnd:  {"and", FmtR3, 1, false, ClassPure, 0, false},
	OpOr:   {"or", FmtR3, 1, false, ClassPure, 0, false},
	OpXor:  {"xor", FmtR3, 1, false, ClassPure, 0, false},
	OpShl:  {"shl", FmtR3, 1, false, ClassPure, 0, false},
	OpShr:  {"shr", FmtR3, 1, false, ClassPure, 0, false},
	OpSar:  {"sar", FmtR3, 1, false, ClassPure, 0, false},
	OpSlt:  {"slt", FmtR3, 1, false, ClassPure, 0, false},
	OpSltu: {"sltu", FmtR3, 1, false, ClassPure, 0, false},

	OpAddi: {"addi", FmtR2I, 1, false, ClassPure, 0, false},
	OpMuli: {"muli", FmtR2I, 3, false, ClassPure, 0, false},
	OpAndi: {"andi", FmtR2I, 1, false, ClassPure, 0, false},
	OpOri:  {"ori", FmtR2I, 1, false, ClassPure, 0, false},
	OpXori: {"xori", FmtR2I, 1, false, ClassPure, 0, false},
	OpShli: {"shli", FmtR2I, 1, false, ClassPure, 0, false},
	OpShri: {"shri", FmtR2I, 1, false, ClassPure, 0, false},
	OpSari: {"sari", FmtR2I, 1, false, ClassPure, 0, false},
	OpSlti: {"slti", FmtR2I, 1, false, ClassPure, 0, false},

	OpLdi:  {"ldi", FmtRI, 1, false, ClassPure, 0, false},
	OpLdih: {"ldih", FmtRI, 1, false, ClassPure, 0, false},

	OpLdb:  {"ldb", FmtMem, 2, false, ClassLoad, 1, true},
	OpLdbu: {"ldbu", FmtMem, 2, false, ClassLoad, 1, false},
	OpLdh:  {"ldh", FmtMem, 2, false, ClassLoad, 2, true},
	OpLdhu: {"ldhu", FmtMem, 2, false, ClassLoad, 2, false},
	OpLdw:  {"ldw", FmtMem, 2, false, ClassLoad, 4, true},
	OpLdwu: {"ldwu", FmtMem, 2, false, ClassLoad, 4, false},
	OpLdd:  {"ldd", FmtMem, 2, false, ClassLoad, 8, false},
	OpStb:  {"stb", FmtMem, 2, false, ClassStore, 1, false},
	OpSth:  {"sth", FmtMem, 2, false, ClassStore, 2, false},
	OpStw:  {"stw", FmtMem, 2, false, ClassStore, 4, false},
	OpStd:  {"std", FmtMem, 2, false, ClassStore, 8, false},

	OpFld:   {"fld", FmtFMem, 2, false, ClassLoad, 8, false},
	OpFst:   {"fst", FmtFMem, 2, false, ClassStore, 8, false},
	OpFadd:  {"fadd", FmtF3, 4, false, ClassPure, 0, false},
	OpFsub:  {"fsub", FmtF3, 4, false, ClassPure, 0, false},
	OpFmul:  {"fmul", FmtF3, 4, false, ClassPure, 0, false},
	OpFdiv:  {"fdiv", FmtF3, 20, false, ClassPure, 0, false},
	OpFmin:  {"fmin", FmtF3, 4, false, ClassPure, 0, false},
	OpFmax:  {"fmax", FmtF3, 4, false, ClassPure, 0, false},
	OpFsqrt: {"fsqrt", FmtF2, 30, false, ClassPure, 0, false},
	OpFabs:  {"fabs", FmtF2, 1, false, ClassPure, 0, false},
	OpFneg:  {"fneg", FmtF2, 1, false, ClassPure, 0, false},
	OpFmov:  {"fmov", FmtF2, 1, false, ClassPure, 0, false},
	OpFlt:   {"flt", FmtFCmp, 2, false, ClassPure, 0, false},
	OpFle:   {"fle", FmtFCmp, 2, false, ClassPure, 0, false},
	OpFeq:   {"feq", FmtFCmp, 2, false, ClassPure, 0, false},
	OpItof:  {"itof", FmtFI, 4, false, ClassPure, 0, false},
	OpFtoi:  {"ftoi", FmtIF, 4, false, ClassPure, 0, false},
	OpFmvi:  {"fmvi", FmtFI, 1, false, ClassPure, 0, false},
	OpImvf:  {"imvf", FmtIF, 1, false, ClassPure, 0, false},

	OpJmp:  {"jmp", FmtJmp, 1, false, ClassPure, 0, false},
	OpJal:  {"jal", FmtJal, 1, false, ClassPure, 0, false},
	OpJr:   {"jr", FmtR1, 1, false, ClassPure, 0, false},
	OpJalr: {"jalr", FmtR2, 1, false, ClassPure, 0, false},
	OpBeq:  {"beq", FmtBranch, 1, false, ClassPure, 0, false},
	OpBne:  {"bne", FmtBranch, 1, false, ClassPure, 0, false},
	OpBlt:  {"blt", FmtBranch, 1, false, ClassPure, 0, false},
	OpBge:  {"bge", FmtBranch, 1, false, ClassPure, 0, false},
	OpBltu: {"bltu", FmtBranch, 1, false, ClassPure, 0, false},
	OpBgeu: {"bgeu", FmtBranch, 1, false, ClassPure, 0, false},

	OpAxchg: {"axchg", FmtR3, 8, false, ClassAtomic, 8, false},
	OpAcas:  {"acas", FmtR3, 10, false, ClassAtomic, 8, false},
	OpAadd:  {"aadd", FmtR3, 8, false, ClassAtomic, 8, false},

	OpSyscall:  {"syscall", FmtNone, 1, false, ClassInterp, 0, false},
	OpIret:     {"iret", FmtNone, 10, true, ClassInterp, 0, false},
	OpMovtcr:   {"movtcr", FmtCRW, 10, true, ClassEvent, 0, false},
	OpMovfcr:   {"movfcr", FmtCRR, 4, true, ClassInterp, 0, false},
	OpHlt:      {"hlt", FmtNone, 1, true, ClassEvent, 0, false},
	OpInvlpg:   {"invlpg", FmtR1, 20, true, ClassInterp, 0, false},
	OpTlbflush: {"tlbflush", FmtNone, 40, true, ClassInterp, 0, false},

	OpSettp:     {"settp", FmtR1, 1, false, ClassOrdered, 0, false},
	OpGettp:     {"gettp", FmtRd, 1, false, ClassPure, 0, false},
	OpSignal:    {"signal", FmtSig, 20, false, ClassEvent, 0, false},
	OpSetyield:  {"setyield", FmtYield, 10, false, ClassEvent, 0, false},
	OpSret:      {"sret", FmtNone, 10, false, ClassEvent, 0, false},
	OpSavectx:   {"savectx", FmtR1, 60, false, ClassInterp, 0, false},
	OpLdctx:     {"ldctx", FmtR1, 60, false, ClassInterp, 0, false},
	OpProxyexec: {"proxyexec", FmtR1, 60, false, ClassEvent, 0, false},
}

// Lookup returns the static Info for op. It panics on an out-of-range
// opcode; use Valid to test first when decoding untrusted words.
func Lookup(op Op) Info {
	if !Valid(op) {
		panic(fmt.Sprintf("isa: invalid opcode %d", op))
	}
	return infos[op]
}

// Valid reports whether op is a defined opcode.
func Valid(op Op) bool { return int(op) < NumOps }

// Name returns the assembler mnemonic for op, or "op<N>" if invalid.
func Name(op Op) string {
	if !Valid(op) {
		return fmt.Sprintf("op%d", op)
	}
	return infos[op].Name
}

// ByName maps mnemonics to opcodes; built at init for the text assembler.
var ByName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op := Op(0); int(op) < NumOps; op++ {
		m[infos[op].Name] = op
	}
	return m
}()

// Instr is a decoded SVM-32 instruction.
type Instr struct {
	Op  Op
	Rd  uint8 // destination register (or first source for stores/signal)
	Rs1 uint8
	Rs2 uint8
	Imm int32
}

// Field returns the register field of i that r names.
func (i *Instr) Field(r RegField) *uint8 {
	switch r {
	case FieldRd:
		return &i.Rd
	case FieldRs1:
		return &i.Rs1
	}
	return &i.Rs2
}

// WordSize is the size in bytes of one encoded instruction.
const WordSize = 8

// Encode packs i into its 64-bit wire format.
func (i Instr) Encode() uint64 {
	return uint64(i.Op) |
		uint64(i.Rd)<<8 |
		uint64(i.Rs1)<<16 |
		uint64(i.Rs2)<<24 |
		uint64(uint32(i.Imm))<<32
}

// Decode unpacks a 64-bit instruction word. It does not validate the
// opcode; callers check Valid when the word may be garbage.
func Decode(w uint64) Instr {
	return Instr{
		Op:  Op(w & 0xFF),
		Rd:  uint8(w >> 8),
		Rs1: uint8(w >> 16),
		Rs2: uint8(w >> 24),
		Imm: int32(uint32(w >> 32)),
	}
}

// Validate checks that the instruction's register fields are in range
// for its format and that branch offsets are word-aligned.
func (i Instr) Validate() error {
	if !Valid(i.Op) {
		return fmt.Errorf("isa: invalid opcode %d", i.Op)
	}
	if i.Rd >= NumRegs || i.Rs1 >= NumRegs || i.Rs2 >= NumRegs {
		return fmt.Errorf("isa: %s: register field out of range (rd=%d rs1=%d rs2=%d)",
			Name(i.Op), i.Rd, i.Rs1, i.Rs2)
	}
	for _, o := range infos[i.Op].Fmt.Operands() {
		if o.Kind == OpndTarget && i.Imm%WordSize != 0 {
			return fmt.Errorf("isa: %s: branch offset %d not a multiple of %d", Name(i.Op), i.Imm, WordSize)
		}
	}
	return nil
}

func (i Instr) String() string { return Disasm(i, 0) }
