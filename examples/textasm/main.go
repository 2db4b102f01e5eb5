// Textasm: the MISP ISA extension driven directly from assembler
// source text — SIGNAL starts a shred on an AMS, the shred's first
// touch of an unmapped heap page triggers proxy execution, and the
// canonical proxy handler (SETYIELD + PROXYEXEC + SRET) services it on
// the OMS. Runs under BareOS (no kernel scheduler), demonstrating the
// machine's kernel-less embedding.
//
// Run: go run ./examples/textasm
package main

import (
	"fmt"
	"log"

	"misp"
)

const src = `
; SIGNAL / proxy-execution demo (assembler syntax: see internal/asm).
main:
    la  r1, proxy_handler
    setyield r1, 0              ; register the proxy handler (scenario 0)

    li  r1, 1                   ; SID 1 = first AMS
    la  r2, shred               ; shred IP
    li  r3, 0x70020000          ; shred SP
    signal r1, r2, r3           ; user-level dual of the IPI (§2.4)

    la  r4, flag                ; wait for the shred to publish
    li  r9, 0
wait:
    ldd r5, [r4]
    beq r5, r9, wait

    la  r1, msg                 ; write() the shred's greeting
    li  r2, 27
    li  r0, 3
    syscall

    la  r6, value               ; exit with the shred's answer
    ldd r1, [r6]
    li  r0, 1
    syscall

proxy_handler:                  ; the single generic handler (§2.5)
    proxyexec r1
    sret

shred:                          ; runs on the AMS
    li  r6, 0x08000000          ; untouched heap page -> proxy page fault
    li  r7, 42
    std r7, [r6]                ; serviced by the OMS on our behalf
    ldd r8, [r6]
    la  r6, value
    std r8, [r6]
    li  r8, 1
    la  r4, flag
    std r8, [r4]
park:
    pause
    j park

.data
flag:  .u64 0
value: .u64 0
msg:   .asciiz "hello from a proxied shred\n"
`

func main() {
	prog, err := misp.Assemble(src)
	if err != nil {
		log.Fatal(err)
	}
	cfg := misp.DefaultConfig(misp.Topology{1}) // 1 OMS + 1 AMS
	cfg.TraceEvents = true
	bos, m, err := misp.RunProgram(cfg, prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bos.Out.String())
	fmt.Printf("exit code: %d (the shred's proxied store)\n\n", bos.ExitCode)

	fmt.Println("firmware event trace:")
	for _, e := range m.Obs.Bus.Events() {
		fmt.Printf("  %8d %-8s %s\n", e.TS, m.Seqs[e.Seq].Name(), e.Kind)
	}
	ams := m.Procs[0].Seqs[1]
	fmt.Printf("\nAMS proxy page faults: %d, proxy stall: %d cycles\n",
		ams.C.ProxyPageFaults, ams.C.ProxyStall)
}
