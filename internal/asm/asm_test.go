package asm

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"misp/internal/isa"
)

func TestBuilderBasicLink(t *testing.T) {
	b := NewBuilder()
	b.Entry("main")
	b.Label("main")
	b.Li(isa.RArg0, 7)
	b.Label("loop")
	b.Addi(isa.RArg0, isa.RArg0, -1)
	b.Bne(isa.RArg0, isa.RRet, "loop")
	b.Jmp("main")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != p.TextBase {
		t.Fatalf("entry 0x%x, want text base 0x%x", p.Entry, p.TextBase)
	}
	// bne at index 2 targets index 1: offset -8.
	in, err := p.Instr(p.TextBase + 2*isa.WordSize)
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != isa.OpBne || in.Imm != -8 {
		t.Fatalf("bne = %+v, want imm -8", in)
	}
	// jmp at index 3 targets index 0: offset -24.
	in, _ = p.Instr(p.TextBase + 3*isa.WordSize)
	if in.Op != isa.OpJmp || in.Imm != -24 {
		t.Fatalf("jmp = %+v, want imm -24", in)
	}
}

func TestBuilderForwardReference(t *testing.T) {
	b := NewBuilder()
	b.Jmp("end")
	b.Nop()
	b.Label("end")
	b.Halt()
	p := b.MustBuild()
	in, _ := p.Instr(p.TextBase)
	if in.Imm != 16 {
		t.Fatalf("forward jmp imm = %d, want 16", in.Imm)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder()
	b.Jmp("nowhere")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Fatalf("undefined label not reported: %v", err)
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder()
	b.Label("x")
	b.Nop()
	b.Label("x")
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate label accepted")
	}
}

func TestBuilderLiWide(t *testing.T) {
	b := NewBuilder()
	b.Li(1, 42)            // 1 instr
	b.Li(2, -5)            // 1 instr
	b.Li(3, 0x1_0000_0000) // 2 instrs
	b.Li(4, math.MinInt64) // 2 instrs
	p := b.MustBuild()
	if p.NumInstrs() != 6 {
		t.Fatalf("NumInstrs = %d, want 6", p.NumInstrs())
	}
}

func TestBuilderDataSymbols(t *testing.T) {
	b := NewBuilder()
	b.Nop()
	b.DataU64("nums", 1, 2, 3)
	b.Asciiz("msg", "hi")
	b.DataF64("vals", 1.5)
	b.BSS("buf", 100)
	b.BSS("buf2", 16)
	p := b.MustBuild()

	nums := p.MustSymbol("nums")
	if nums != p.DataBase {
		t.Fatalf("nums at 0x%x, want 0x%x", nums, p.DataBase)
	}
	msg := p.MustSymbol("msg")
	if msg != nums+24 {
		t.Fatalf("msg at 0x%x, want 0x%x", msg, nums+24)
	}
	vals := p.MustSymbol("vals")
	if vals%8 != 0 {
		t.Fatalf("vals not aligned: 0x%x", vals)
	}
	buf := p.MustSymbol("buf")
	if buf != p.DataBase+uint64(len(p.Data)) {
		t.Fatalf("bss buf at 0x%x, want after data 0x%x", buf, p.DataBase+uint64(len(p.Data)))
	}
	if p.MustSymbol("buf2") != buf+104 { // 100 rounded to 104
		t.Fatalf("bss buf2 misplaced")
	}
	if p.BSS != 104+16 {
		t.Fatalf("BSS size = %d, want 120", p.BSS)
	}
}

func TestBuilderPushPopSymmetric(t *testing.T) {
	b := NewBuilder()
	b.Push(1, 2, 3)
	b.Pop(1, 2, 3)
	p := b.MustBuild()
	// push: addi sp,-24; 3 stores. pop: 3 loads; addi sp,+24.
	if p.NumInstrs() != 8 {
		t.Fatalf("NumInstrs = %d, want 8", p.NumInstrs())
	}
	first, _ := p.Instr(p.TextBase)
	if first.Op != isa.OpAddi || first.Imm != -24 {
		t.Fatalf("push prologue = %+v", first)
	}
	last, _ := p.Instr(p.TextBase + 7*isa.WordSize)
	if last.Op != isa.OpAddi || last.Imm != 24 {
		t.Fatalf("pop epilogue = %+v", last)
	}
}

func TestProgramDisasmListing(t *testing.T) {
	b := NewBuilder()
	b.Entry("main")
	b.Label("main")
	b.Li(1, 5)
	b.Syscall()
	p := b.MustBuild()
	lst := p.Disasm()
	if !strings.Contains(lst, "main:") || !strings.Contains(lst, "ldi r1, 5") || !strings.Contains(lst, "syscall") {
		t.Fatalf("listing missing content:\n%s", lst)
	}
}

const sampleSrc = `
; sample program
.entry main
main:
    li   r1, 10
    la   r2, nums
    ldd  r3, [r2+8]
    add  r4, r1, r3
    fld  f1, [r2+16]
    fadd f2, f1, f1
loop:
    subi r1, r1, 1
    bne  r1, r0, loop
    mov  r5, r4
    call fn
    signal r1, r2, r3
    setyield r2, 0
    syscall
fn:
    ret
.data
nums: .u64 1, 2, 3
vals: .f64 2.5, -1.0
msg:  .asciiz "hello ; not a comment"
pad:  .space 16
tail: .u32 7
`

func TestAssembleText(t *testing.T) {
	p, err := Assemble(sampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != p.MustSymbol("main") {
		t.Error("entry not main")
	}
	// ldd r3, [r2+8]
	in, err := p.Instr(p.MustSymbol("main") + 2*isa.WordSize)
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != isa.OpLdd || in.Rd != 3 || in.Rs1 != 2 || in.Imm != 8 {
		t.Fatalf("ldd = %+v", in)
	}
	// Data checks: nums followed by vals (aligned), msg text preserved.
	if p.MustSymbol("vals")-p.MustSymbol("nums") != 24 {
		t.Error("vals misplaced")
	}
	msgOff := p.MustSymbol("msg") - p.DataBase
	if got := string(p.Data[msgOff : msgOff+5]); got != "hello" {
		t.Errorf("msg data = %q", got)
	}
	if p.MustSymbol("tail")-p.MustSymbol("pad") < 16 {
		t.Error(".space did not reserve bytes")
	}
}

func TestAssembleDefaultsEntryToMain(t *testing.T) {
	p, err := Assemble("main:\n  nop\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != p.MustSymbol("main") {
		t.Error("entry did not default to main")
	}
}

// badSources are sources the text assembler must reject; TestTextGolden
// also pins whether each error names its line.
var badSources = []string{
	"bogus r1, r2",          // unknown mnemonic
	"add r1, r2",            // wrong operand count
	"add r1, r2, r99",       // bad register
	"ldd r1, [zz+8]",        // bad mem base
	"beq r1, r2, 12x",       // bad target
	".data\nadd r1, r2, r3", // instruction in data
	".unknown 5",            // unknown directive
	"li r1, zzz",            // bad constant
	"movtcr cr9, r1",        // bad control register
	"jmp nowhere",           // undefined label
	"add r16, r1, r2",       // register 16
	"fadd f1, f16, f2",      // float register 16
	"ldd r1, [r16+8]",       // mem base register 16
}

// lineErrors are bad sources that must be rejected at their last line,
// not at link.
var lineErrors = []string{
	"subi r1, r2, -2147483648", // the negation wraps
	"jmp 12x",                  // bad targets, each kind of writer
	"jal r1, 12x",
	"j 1",
	"call 1x",
	"la r1, 2",
	"nop\nbne r1, r2, .+8", // a relative target
}

func TestAssembleErrors(t *testing.T) {
	for _, src := range badSources {
		if _, err := Assemble(src); err == nil {
			t.Errorf("accepted bad source %q", src)
		}
	}
	for _, src := range lineErrors {
		want := fmt.Sprintf("rejected at line %d", strings.Count(src, "\n")+1)
		if got := verdict(src); got != want {
			t.Errorf("%q: %s, want %s", src, got, want)
		}
	}
}

// TestDataImageBounded: a .space or .align that would grow the data
// image past what a loader maps fails at its line before allocating it.
func TestDataImageBounded(t *testing.T) {
	for _, src := range []string{
		".data\nx: .space 0x10000000",
		".data\nx: .space 0xffffffff",
		".data\nx: .u8 1\n.space 0x7000000", // one byte past the window
		".data\nx: .u8 1\n.align 134217728",
		".data\nx: .u8 1\n.align 4611686018427387904",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := verdict(src)
		runtime.ReadMemStats(&after)
		if want := fmt.Sprintf("rejected at line %d", strings.Count(src, "\n")+1); got != want {
			t.Errorf("%q: %s, want %s", src, got, want)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%q: rejecting it allocated %d bytes", src, n)
		}
	}
}

// Property: any builder program that links can be disassembled and each
// text instruction decodes to a valid opcode.
func TestLinkedTextAlwaysDecodes(t *testing.T) {
	f := func(seed uint8, n uint8) bool {
		b := NewBuilder()
		b.Label("top")
		count := int(n%32) + 1
		for i := 0; i < count; i++ {
			switch (int(seed) + i) % 6 {
			case 0:
				b.Add(1, 2, 3)
			case 1:
				b.Li(4, int64(seed)*1e10)
			case 2:
				b.Beq(1, 2, "top")
			case 3:
				b.Fadd(1, 2, 3)
			case 4:
				b.Ld(5, isa.SP, int32(i*8))
			case 5:
				b.Call("top")
			}
		}
		p, err := b.Build()
		if err != nil {
			return false
		}
		for i := 0; i < p.NumInstrs(); i++ {
			in, err := p.Instr(p.TextBase + uint64(i)*isa.WordSize)
			if err != nil || in.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: text assembling a disassembled single instruction of
// register-register format reproduces the same encoding.
func TestTextRoundTripR3(t *testing.T) {
	ops := []isa.Op{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpXor, isa.OpSltu, isa.OpAcas, isa.OpAadd}
	for _, op := range ops {
		in := isa.Instr{Op: op, Rd: 3, Rs1: 4, Rs2: 5}
		src := "main:\n  " + isa.Disasm(in, 0) + "\n"
		p, err := Assemble(src)
		if err != nil {
			t.Fatalf("%s: %v", isa.Name(op), err)
		}
		got, _ := p.Instr(p.TextBase)
		if got != in {
			t.Errorf("%s: round trip %+v != %+v", isa.Name(op), got, in)
		}
	}
}

// hasTarget reports whether op's format has a branch target operand.
func hasTarget(op isa.Op) bool {
	for _, o := range isa.Lookup(op).Fmt.Operands() {
		if o.Kind == isa.OpndTarget {
			return true
		}
	}
	return false
}

// maxTargetWords bounds how far away textSource lays out a target.
const maxTargetWords = 64

// textSource returns a program whose word at index at assembles from
// Disasm(in, 0). A branch target, which disassembles as an offset
// (".+N"), becomes a label that many bytes away, with nops between; ok
// is false when that is more than maxTargetWords words.
func textSource(in isa.Instr) (src string, at int, ok bool) {
	text := isa.Disasm(in, 0)
	if !hasTarget(in.Op) {
		return "main:\n    " + text + "\n", 0, true
	}
	k := int(in.Imm / isa.WordSize)
	if k < -maxTargetWords || k > maxTargetWords {
		return "", 0, false
	}
	text = text[:strings.LastIndexByte(text, ' ')+1] + "t" // the target is the last operand
	at = max(0, -k)
	var b strings.Builder
	b.WriteString("main:\n")
	for j := 0; j <= at+max(0, k); j++ {
		if j == at+k {
			b.WriteString("t:\n")
		}
		line := "nop"
		if j == at {
			line = text
		}
		fmt.Fprintf(&b, "    %s\n", line)
	}
	return b.String(), at, true
}

// TestTextRoundTripAllFormats: every opcode, each operand its format
// lists set to a value of its own, must re-assemble from its
// disassembly to the same word.
func TestTextRoundTripAllFormats(t *testing.T) {
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		in := isa.Instr{Op: op}
		for k, o := range isa.Lookup(op).Fmt.Operands() {
			switch o.Kind {
			case isa.OpndReg, isa.OpndFReg:
				*in.Field(o.Reg) = uint8(3 + k)
			case isa.OpndImm:
				in.Imm = 16
			case isa.OpndMem:
				in.Rs1, in.Imm = uint8(3+k), -16
			case isa.OpndCR:
				in.Imm = 3
			case isa.OpndTarget:
				in.Imm = -2 * isa.WordSize
			}
		}
		src, at, _ := textSource(in)
		p, err := Assemble(src)
		if err != nil {
			t.Errorf("%s: %v (src %q)", isa.Name(op), err, src)
			continue
		}
		if got, _ := p.Instr(p.TextBase + uint64(at)*isa.WordSize); got != in {
			t.Errorf("%s: %+v -> %q -> %+v", isa.Name(op), in, src, got)
		}
	}
}
