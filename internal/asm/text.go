package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"misp/internal/isa"
)

// Assemble parses SVM-32 assembler source text and returns the linked
// Program.
//
// Syntax summary:
//
//	; or # start a comment
//	label:                       (text or data label, may share a line)
//	.entry main                  (entry point; defaults to "main" if defined)
//	.text / .data                (section switch; .text is the default)
//	.u8/.u16/.u32/.u64 v, ...    (data words)
//	.f64 v, ...                  (float data)
//	.asciiz "str"                (NUL-terminated string)
//	.space n                     (n zero bytes in the data image)
//	.align n                     (data alignment)
//	add r1, r2, r3               (instructions; see isa package mnemonics)
//	ldd r1, [sp+8]               (memory operands)
//	beq r1, r2, label            (branch targets are labels)
//	li r1, 0x123456789           (pseudo: expands to ldi/ldih)
//	la r1, sym                   (pseudo: load symbol address)
//	mov/subi/call/ret/j/push/pop (pseudos)
//	movtcr cr3, r1               (control registers)
func Assemble(src string) (*Program, error) {
	b := NewBuilder()
	inData := false
	sawMain := false
	entrySet := false

	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("asm: line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
		}

		// Peel off leading labels.
		for {
			i := strings.IndexByte(line, ':')
			if i < 0 || strings.ContainsAny(line[:i], " \t\"[,") {
				break
			}
			name := line[:i]
			if !validIdent(name) {
				return nil, fail("bad label %q", name)
			}
			if inData {
				b.DataLabel(name)
			} else {
				b.Label(name)
			}
			if name == "main" {
				sawMain = true
			}
			line = strings.TrimSpace(line[i+1:])
			if line == "" {
				break
			}
		}
		if line == "" {
			continue
		}

		fields := splitOnce(line)
		mnem, rest := fields[0], fields[1]

		if strings.HasPrefix(mnem, ".") {
			if err := directive(b, mnem, rest, &inData, &entrySet); err != nil {
				return nil, fail("%v", err)
			}
			continue
		}
		if inData {
			return nil, fail("instruction %q in .data section", mnem)
		}
		if err := instruction(b, mnem, rest); err != nil {
			return nil, fail("%v", err)
		}
	}
	if !entrySet && sawMain {
		b.Entry("main")
	}
	return b.Build()
}

// MustAssemble is Assemble that panics on error.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

func stripComment(s string) string {
	inStr := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case ';', '#':
			if !inStr {
				return s[:i]
			}
		}
	}
	return s
}

func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || c == '.' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func splitOnce(s string) [2]string {
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return [2]string{s, ""}
	}
	return [2]string{s[:i], strings.TrimSpace(s[i+1:])}
}

// maxData is the largest data image a loader can map: kernel.Spawn and
// BareOS both put the heap at HeapBase, right above the data segment.
const maxData = HeapBase - DefaultDataBase

func directive(b *Builder, d, rest string, inData, entrySet *bool) error {
	switch d {
	case ".text":
		*inData = false
	case ".data":
		*inData = true
	case ".entry":
		if !validIdent(rest) {
			return fmt.Errorf(".entry: bad symbol %q", rest)
		}
		b.Entry(rest)
		*entrySet = true
	case ".align":
		n, err := strconv.Atoi(rest)
		if err != nil || n <= 0 || n&(n-1) != 0 {
			return fmt.Errorf(".align: bad alignment %q", rest)
		}
		if len(b.data)+(n-len(b.data)%n)%n > maxData {
			return fmt.Errorf(".align: %d pads the data image past the %d bytes a loader maps", n, maxData)
		}
		b.AlignData(n)
	case ".u8", ".u16", ".u32", ".u64":
		vals, err := parseIntList(rest)
		if err != nil {
			return err
		}
		switch d {
		case ".u8":
			for _, v := range vals {
				b.DataBytes("", []byte{byte(v)})
			}
		case ".u16":
			b.AlignData(2)
			for _, v := range vals {
				b.DataBytes("", []byte{byte(v), byte(v >> 8)})
			}
		case ".u32":
			b.AlignData(4)
			for _, v := range vals {
				b.DataBytes("", []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
			}
		case ".u64":
			b.AlignData(8)
			u := make([]uint64, len(vals))
			for i, v := range vals {
				u[i] = uint64(v)
			}
			b.DataU64("", u...)
		}
	case ".f64":
		var vals []float64
		for _, f := range strings.Split(rest, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return fmt.Errorf(".f64: %v", err)
			}
			vals = append(vals, v)
		}
		b.AlignData(8)
		b.DataF64("", vals...)
	case ".asciiz":
		s, err := strconv.Unquote(rest)
		if err != nil {
			return fmt.Errorf(".asciiz: %v", err)
		}
		b.DataBytes("", append([]byte(s), 0))
	case ".space":
		n, err := strconv.ParseUint(rest, 0, 32)
		if err != nil || n == 0 {
			return fmt.Errorf(".space: bad size %q", rest)
		}
		if uint64(len(b.data))+n > maxData {
			return fmt.Errorf(".space: %d bytes grow the data image past the %d bytes a loader maps", n, maxData)
		}
		b.data = append(b.data, make([]byte, n)...)
	default:
		return fmt.Errorf("unknown directive %q", d)
	}
	return nil
}

// parseInt reads a 64-bit literal, signed or, past the signed range,
// unsigned (kept as its two's-complement bits).
func parseInt(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		u, uerr := strconv.ParseUint(s, 0, 64)
		if uerr != nil {
			return 0, err
		}
		v = int64(u)
	}
	return v, nil
}

func parseIntList(s string) ([]int64, error) {
	var out []int64
	for _, f := range strings.Split(s, ",") {
		v, err := parseInt(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// The per-kind operand parsers, one for each isa.OperandKind.

func parseReg(s string) (uint8, error) {
	switch s {
	case "sp":
		return isa.SP, nil
	case "lr":
		return isa.LR, nil
	}
	if len(s) >= 2 && s[0] == 'r' {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n < isa.NumRegs {
			return uint8(n), nil
		}
	}
	return 0, fmt.Errorf("bad register %q", s)
}

func parseFReg(s string) (uint8, error) {
	if len(s) >= 2 && s[0] == 'f' {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n < isa.NumRegs {
			return uint8(n), nil
		}
	}
	return 0, fmt.Errorf("bad float register %q", s)
}

func parseImm32(s string) (int32, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	if int64(int32(v)) != v {
		return 0, fmt.Errorf("immediate %q exceeds 32 bits", s)
	}
	return int32(v), nil
}

// parseMem parses "[reg]", "[reg+off]" or "[reg-off]".
func parseMem(s string) (uint8, int32, error) {
	if len(s) < 3 || s[0] != '[' || s[len(s)-1] != ']' {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	inner := s[1 : len(s)-1]
	sep := strings.IndexAny(inner, "+-")
	if sep < 0 {
		r, err := parseReg(inner)
		return r, 0, err
	}
	r, err := parseReg(strings.TrimSpace(inner[:sep]))
	if err != nil {
		return 0, 0, err
	}
	off, err := parseImm32(strings.TrimSpace(inner[sep:]))
	if err != nil {
		return 0, 0, err
	}
	return r, off, nil
}

func parseCR(s string) (int32, error) {
	if strings.HasPrefix(s, "cr") {
		n, err := strconv.Atoi(s[2:])
		if err == nil && n >= 0 && n < isa.NumCRs {
			return int32(n), nil
		}
	}
	return 0, fmt.Errorf("bad control register %q", s)
}

// parseTarget parses a branch target, or la's symbol: a label name.
func parseTarget(s string) (string, error) {
	if !validIdent(s) {
		return "", fmt.Errorf("bad target %q", s)
	}
	return s, nil
}

func splitOperands(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// args is one line's operands, each parsed into the field its kind
// fills.
type args struct {
	isa.Instr
	sym string // a target operand
	lit int64  // a wide immediate (li's constant)
}

// parse reads ops as the operand list want of mnem. With wide, an
// immediate operand is a 64-bit constant for lit instead of an imm32.
func (a *args) parse(mnem string, want []isa.Operand, wide bool, ops []string) error {
	if len(ops) != len(want) {
		return fmt.Errorf("%s: want %d operands, got %d", mnem, len(want), len(ops))
	}
	for k, o := range want {
		var err error
		s := ops[k]
		switch o.Kind {
		case isa.OpndReg:
			*a.Field(o.Reg), err = parseReg(s)
		case isa.OpndFReg:
			*a.Field(o.Reg), err = parseFReg(s)
		case isa.OpndImm:
			if wide {
				if a.lit, err = parseInt(s); err != nil {
					err = fmt.Errorf("bad constant %q", s)
				}
			} else {
				a.Imm, err = parseImm32(s)
			}
		case isa.OpndMem:
			a.Rs1, a.Imm, err = parseMem(s)
		case isa.OpndCR:
			a.Imm, err = parseCR(s)
		case isa.OpndTarget:
			a.sym, err = parseTarget(s)
		}
		if err != nil {
			return fmt.Errorf("%s: %v", mnem, err)
		}
	}
	return nil
}

// A pseudo is a mnemonic that exists only in text. It is written like an
// instruction of its format, its operands are read by the same parsers,
// and it expands through the Builder.
type pseudo struct {
	fmt  isa.Fmt
	wide bool // the immediate is a 64-bit constant
	emit func(b *Builder, a args) error
}

var pseudos = map[string]pseudo{
	"li":   {isa.FmtRI, true, func(b *Builder, a args) error { b.Li(a.Rd, a.lit); return nil }},
	"la":   {isa.FmtJal, false, func(b *Builder, a args) error { b.La(a.Rd, a.sym); return nil }},
	"mov":  {isa.FmtR2, false, func(b *Builder, a args) error { b.Mov(a.Rd, a.Rs1); return nil }},
	"subi": {isa.FmtR2I, false, subi},
	"call": {isa.FmtJmp, false, func(b *Builder, a args) error { b.Call(a.sym); return nil }},
	"ret":  {isa.FmtNone, false, func(b *Builder, a args) error { b.Ret(); return nil }},
	"j":    {isa.FmtJmp, false, func(b *Builder, a args) error { b.Jmp(a.sym); return nil }},
	"push": {isa.FmtRd, false, func(b *Builder, a args) error { b.Push(a.Rd); return nil }},
	"pop":  {isa.FmtRd, false, func(b *Builder, a args) error { b.Pop(a.Rd); return nil }},
}

// subi is addi of the negated immediate, which must itself fit.
func subi(b *Builder, a args) error {
	if a.Imm == math.MinInt32 {
		return fmt.Errorf("subi: immediate %d out of range: its negation exceeds 32 bits", a.Imm)
	}
	b.Addi(a.Rd, a.Rs1, -a.Imm)
	return nil
}

func instruction(b *Builder, mnem, rest string) error {
	ops := splitOperands(rest)
	var a args
	if p, ok := pseudos[mnem]; ok {
		if err := a.parse(mnem, p.fmt.Operands(), p.wide, ops); err != nil {
			return err
		}
		return p.emit(b, a)
	}
	op, ok := isa.ByName[mnem]
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mnem)
	}
	if err := a.parse(mnem, isa.Lookup(op).Fmt.Operands(), false, ops); err != nil {
		return err
	}
	a.Op = op
	if a.sym != "" {
		b.emitFix(a.Instr, fixRel, a.sym)
	} else {
		b.Emit(a.Instr)
	}
	return nil
}
