// mispasm assembles, disassembles, and inspects SVM-32 programs.
//
// Usage:
//
//	mispasm file.svm            assemble and print the listing
//	mispasm -symbols file.svm   also print the symbol table
//
// To run a program, use mispsim -run file.svm.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"misp/internal/asm"
	"misp/internal/version"
)

func main() {
	symbols := flag.Bool("symbols", false, "print the symbol table")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.String())
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mispasm [-symbols] file.svm")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := asm.Assemble(string(src))
	if err != nil {
		fatal(err)
	}

	fmt.Printf("; %d instructions, %d data bytes, %d bss bytes, entry 0x%x\n",
		prog.NumInstrs(), len(prog.Data), prog.BSS, prog.Entry)
	fmt.Print(prog.Disasm())

	if *symbols {
		fmt.Println("\nsymbols:")
		type sym struct {
			name string
			addr uint64
		}
		var syms []sym
		for n, a := range prog.Symbols {
			syms = append(syms, sym{n, a})
		}
		sort.Slice(syms, func(i, j int) bool { return syms[i].addr < syms[j].addr })
		for _, s := range syms {
			fmt.Printf("  0x%08x  %s\n", s.addr, s.name)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mispasm:", err)
	os.Exit(1)
}
