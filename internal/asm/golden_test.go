package asm

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"misp/internal/isa"
)

var updateGolden = flag.Bool("update", false,
	"rewrite testdata/golden_text.txt from this build (only for a deliberate change to the assembler syntax or the disassembly text)")

const goldenTextPath = "testdata/golden_text.txt"

// checkGolden compares got, one point per line, with the file at path
// (whose first line is a header), or rewrites the file under -update.
func checkGolden(t *testing.T, path, header string, got []string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(header+"\n"+strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")[1:] // drop the header
	if len(want) != len(got) {
		t.Fatalf("%s has %d points, this build made %d", path, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s:\n want %s\n  got %s", path, want[i], got[i])
		}
	}
}

// The golden field corpus: every combination of these register and
// immediate values, in every register field and the immediate. It covers
// zero fields, sp (r15) and lr, an out-of-range register, immediates at
// both int32 extremes, and an unaligned offset.
var (
	goldenRegs = []uint8{0, 3, isa.LR, isa.SP, isa.NumRegs}
	goldenImms = []int32{0, 8, -8, math.MaxInt32, math.MinInt32, 3}
)

// fieldCorpus returns op over every combination of the golden fields.
func fieldCorpus(op isa.Op) []isa.Instr {
	var out []isa.Instr
	for _, rd := range goldenRegs {
		for _, rs1 := range goldenRegs {
			for _, rs2 := range goldenRegs {
				for _, imm := range goldenImms {
					out = append(out, isa.Instr{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm})
				}
			}
		}
	}
	return out
}

// disasmDigest is the SHA-256 of the disassembly of ins at pc, one
// instruction per line.
func disasmDigest(ins []isa.Instr, pc uint64) string {
	h := sha256.New()
	for _, in := range ins {
		fmt.Fprintln(h, isa.Disasm(in, pc))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// canonicalText reports whether in is the one instruction its disassembly
// names: every register in range, every field its operands do not show
// zero (zeroing a shown field changes the text), and a control-register
// number in range. Such an instruction must re-assemble from its text.
func canonicalText(in isa.Instr) bool {
	if in.Rd >= isa.NumRegs || in.Rs1 >= isa.NumRegs || in.Rs2 >= isa.NumRegs {
		return false
	}
	text := isa.Disasm(in, 0)
	for _, z := range []isa.Instr{
		{Op: in.Op, Rs1: in.Rs1, Rs2: in.Rs2, Imm: in.Imm},
		{Op: in.Op, Rd: in.Rd, Rs2: in.Rs2, Imm: in.Imm},
		{Op: in.Op, Rd: in.Rd, Rs1: in.Rs1, Imm: in.Imm},
		{Op: in.Op, Rd: in.Rd, Rs1: in.Rs1, Rs2: in.Rs2},
	} {
		if z != in && isa.Disasm(z, 0) == text {
			return false
		}
	}
	switch isa.Lookup(in.Op).Fmt {
	case isa.FmtCRW, isa.FmtCRR:
		return in.Imm >= 0 && in.Imm < isa.NumCRs
	}
	return true
}

// canonicalSource is one program made of the disassembly, at pc 0, of
// every canonical instruction in the golden corpus whose format has no
// branch target.
func canonicalSource() string {
	var b strings.Builder
	b.WriteString("main:\n")
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		switch isa.Lookup(op).Fmt {
		case isa.FmtJmp, isa.FmtJal, isa.FmtBranch:
			continue
		}
		for _, in := range fieldCorpus(op) {
			if canonicalText(in) {
				fmt.Fprintf(&b, "    %s\n", isa.Disasm(in, 0))
			}
		}
	}
	return b.String()
}

// pseudoSrc uses every pseudo-instruction and every data directive.
const pseudoSrc = `
.entry start
start:
    li   r1, 42
    li   r2, -1
    li   r3, 0x123456789
    li   r4, 0xffffffffffffffff
    li   r5, -9223372036854775808
    la   r6, start
    la   r7, buf
    mov  r8, r7
    subi r9, r8, 16
    subi sp, sp, -8
    push r1
    pop  lr
    call fn
    j    end
fn:
    ret
end:
    syscall
.data
bytes: .u8 1, 255, -1
       .u16 0xffff
       .align 16
buf:   .u64 5, 0xffffffffffffffff
       .space 3
halfs: .u32 -2
flt:   .f64 0.5
str:   .asciiz "a;b"
`

// linkedDigest is the SHA-256 of everything the loader reads from the
// program src assembles to — segment bases, BSS size, entry, text, data
// and the symbol table in name order — or the assembler's error.
func linkedDigest(src string) string {
	p, err := Assemble(src)
	if err != nil {
		return fmt.Sprintf("error %q", err)
	}
	h := sha256.New()
	var buf [8]byte
	for _, v := range []uint64{p.TextBase, p.DataBase, p.BSS, p.Entry, uint64(len(p.Text)), uint64(len(p.Data))} {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write(p.Text)
	h.Write(p.Data)
	names := make([]string, 0, len(p.Symbols))
	for name := range p.Symbols {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s=%#x\n", name, p.Symbols[name])
	}
	return fmt.Sprintf("%d instrs %x", p.NumInstrs(), h.Sum(nil))
}

var lineErr = regexp.MustCompile(`^asm: line (\d+): `)

// verdict says whether src assembles and, if not, whether the error
// names its line.
func verdict(src string) string {
	_, err := Assemble(src)
	switch {
	case err == nil:
		return "accepted"
	case lineErr.MatchString(err.Error()):
		return "rejected at line " + lineErr.FindStringSubmatch(err.Error())[1]
	}
	return "rejected at link"
}

// TestTextGolden pins both directions of the text format: the
// disassembly of every opcode over the golden field corpus (at pc 0,
// where targets are relative, and at 0x10000), the linked bytes of three
// sources, and the verdict on each bad source. A refactor of the
// assembler or disassembler must leave every line alone.
func TestTextGolden(t *testing.T) {
	var got []string
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		ins := fieldCorpus(op)
		got = append(got, fmt.Sprintf("disasm %s %s %s", isa.Name(op), disasmDigest(ins, 0), disasmDigest(ins, 0x10000)))
	}
	var bad []isa.Instr
	for _, op := range []isa.Op{isa.Op(isa.NumOps), 0x80, 0xff} {
		bad = append(bad, fieldCorpus(op)...)
	}
	got = append(got, fmt.Sprintf("disasm .word %s %s", disasmDigest(bad, 0), disasmDigest(bad, 0x10000)))
	got = append(got,
		"program sample "+linkedDigest(sampleSrc),
		"program pseudo "+linkedDigest(pseudoSrc),
		"program canonical "+linkedDigest(canonicalSource()))
	for _, src := range badSources {
		got = append(got, fmt.Sprintf("source %q %s", src, verdict(src)))
	}
	checkGolden(t, goldenTextPath,
		"# point digest; rewrite with: go test ./internal/asm -run TestTextGolden -update", got)
}
