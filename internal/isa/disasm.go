package isa

import (
	"fmt"
	"strings"
)

// RegName returns the conventional name of integer register r.
func RegName(r uint8) string {
	switch r {
	case LR:
		return "lr"
	case SP:
		return "sp"
	default:
		return fmt.Sprintf("r%d", r)
	}
}

// FRegName returns the name of float register r.
func FRegName(r uint8) string { return fmt.Sprintf("f%d", r) }

// Disasm renders i as assembler text. pc, when nonzero, is used to
// resolve branch targets to absolute addresses; with pc == 0 branch
// offsets are shown relative (".+N").
func Disasm(i Instr, pc uint64) string {
	if !Valid(i.Op) {
		return fmt.Sprintf(".word 0x%016x", i.Encode())
	}
	info := infos[i.Op]
	var b strings.Builder
	b.WriteString(info.Name)
	for k, o := range info.Fmt.Operands() {
		if k == 0 {
			b.WriteByte(' ')
		} else {
			b.WriteString(", ")
		}
		b.WriteString(o.text(i, pc))
	}
	return b.String()
}

// text renders operand o of i, at pc as Disasm does.
func (o Operand) text(i Instr, pc uint64) string {
	switch o.Kind {
	case OpndReg:
		return RegName(*i.Field(o.Reg))
	case OpndFReg:
		return FRegName(*i.Field(o.Reg))
	case OpndImm:
		return fmt.Sprint(i.Imm)
	case OpndMem:
		return fmt.Sprintf("[%s%+d]", RegName(i.Rs1), i.Imm)
	case OpndCR:
		return fmt.Sprintf("cr%d", i.Imm)
	}
	if pc != 0 {
		return fmt.Sprintf("0x%x", uint64(int64(pc)+int64(i.Imm)))
	}
	return fmt.Sprintf(".%+d", i.Imm)
}
