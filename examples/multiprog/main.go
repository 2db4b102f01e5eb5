// Multiprog: the paper's Figure 7 scenario in miniature — a
// multi-shredded RayTracer shares an 8-sequencer machine with
// single-threaded competitor processes under three MISP MP
// configurations (Figure 6) plus the SMP baseline, showing why the
// 1x8 configuration degrades fastest (its lone OMS must timeshare
// with every competitor, idling the AMSs).
//
// Run: go run ./examples/multiprog
package main

import (
	"fmt"
	"log"

	"misp"
)

func main() {
	const maxLoad = 4
	fmt.Println("RayTracer throughput vs system load (normalized to unloaded):")
	curves, err := misp.Fig7(misp.EvalOptions{Size: misp.SizeSmall}, maxLoad)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(misp.Fig7Table(curves, maxLoad).String())

	// A tiny ASCII rendition of the curves.
	fmt.Println("load →   0....1....2....3....4")
	for _, c := range curves {
		fmt.Printf("%-7s ", c.Config)
		for _, s := range c.Speedup {
			switch {
			case s > 0.9:
				fmt.Print("█████")
			case s > 0.75:
				fmt.Print("████ ")
			case s > 0.6:
				fmt.Print("███  ")
			case s > 0.45:
				fmt.Print("██   ")
			case s > 0.3:
				fmt.Print("█    ")
			default:
				fmt.Print(".    ")
			}
		}
		fmt.Println()
	}
}
