// Icelake maps a third-generation (Ice Lake) Xeon 6354 instance, showing
// that the locating method transfers to the newer die with its different
// CHA numbering — the paper's Sec. III-B / Fig. 5 result.
package main

import (
	"context"
	"fmt"
	"log"

	"coremap"
	"coremap/internal/machine"
)

func main() {
	host := machine.Generate(machine.SKU6354, 0, machine.Config{Seed: 11})

	res, err := coremap.MapMachine(context.Background(), host, coremap.IceLakeXCCDie, coremap.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Xeon 6354 (Ice Lake), 18 cores on an 8×6 tile grid\n\n")
	fmt.Printf("OS core ID → CHA ID: %v\n", res.OSToCHA)
	fmt.Println("(note the ascending CHA order — a different firmware rule than Skylake's mod-4 groups)")
	fmt.Printf("\nrecovered map (OS/CHA; \"-/n\" are LLC-only tiles):\n%s", res.Render())
	fmt.Printf("\nreconstruction: %s\n", res.SearchSummary())
}
