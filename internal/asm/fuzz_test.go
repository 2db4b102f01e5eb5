package asm

import (
	"strings"
	"testing"

	"misp/internal/isa"
)

// FuzzAssemble: any source either fails with an error or links to text
// whose every word validates and whose target-free words re-assemble,
// from their disassembly, to themselves. Seeded with the golden sources,
// each opcode's canonical lines, and every bad source.
func FuzzAssemble(f *testing.F) {
	f.Add(sampleSrc)
	f.Add(pseudoSrc)
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		if hasTarget(op) {
			continue
		}
		var b strings.Builder
		b.WriteString("main:\n")
		for _, in := range fieldCorpus(op) {
			if canonicalText(in) {
				b.WriteString("    " + isa.Disasm(in, 0) + "\n")
			}
		}
		f.Add(b.String())
	}
	for _, src := range append(badSources, lineErrors...) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			return
		}
		var b strings.Builder
		var words []isa.Instr
		b.WriteString("main:\n")
		for i := 0; i < p.NumInstrs(); i++ {
			in, err := p.Instr(p.TextBase + uint64(i)*isa.WordSize)
			if err != nil {
				t.Fatal(err)
			}
			if err := in.Validate(); err != nil {
				t.Fatalf("word %d of a linked program: %v", i, err)
			}
			if !hasTarget(in.Op) {
				words = append(words, in)
				b.WriteString("    " + isa.Disasm(in, 0) + "\n")
			}
		}
		q, err := Assemble(b.String())
		if err != nil {
			t.Fatalf("the disassembly of a linked program does not assemble: %v", err)
		}
		for i, in := range words {
			if got, _ := q.Instr(q.TextBase + uint64(i)*isa.WordSize); got != in {
				t.Fatalf("%+v -> %q -> %+v", in, isa.Disasm(in, 0), got)
			}
		}
	})
}

// FuzzInstrText: any word decodes and re-encodes to itself, and
// validates and disassembles without panicking; a valid word whose
// unnamed fields are zero and whose control-register number is in range
// re-assembles from its disassembly to itself. Seeded with the golden
// field corpus — register 16 and invalid opcodes included — and every
// canonical instruction in it.
func FuzzInstrText(f *testing.F) {
	for _, op := range []isa.Op{isa.Op(isa.NumOps), 0x80, 0xff} {
		f.Add(isa.Instr{Op: op, Rd: 1, Rs1: 2, Rs2: 3, Imm: -8}.Encode())
	}
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		for _, in := range fieldCorpus(op) {
			if canonicalText(in) || (in.Rd == in.Rs1 && in.Rs1 == in.Rs2) {
				f.Add(in.Encode())
			}
		}
	}
	f.Fuzz(func(t *testing.T, w uint64) {
		in := isa.Decode(w)
		if in.Encode() != w {
			t.Fatalf("%#x decodes to %+v, which encodes to %#x", w, in, in.Encode())
		}
		valid := in.Validate() == nil
		isa.Disasm(in, 0x10000)
		if !valid || !canonicalText(in) {
			return
		}
		src, at, ok := textSource(in)
		if !ok {
			return
		}
		p, err := Assemble(src)
		if err != nil {
			t.Fatalf("%+v: %q does not assemble: %v", in, isa.Disasm(in, 0), err)
		}
		if got, _ := p.Instr(p.TextBase + uint64(at)*isa.WordSize); got != in {
			t.Fatalf("%+v -> %q -> %+v", in, isa.Disasm(in, 0), got)
		}
	})
}
