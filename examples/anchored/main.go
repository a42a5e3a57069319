// Anchored demonstrates the memory-anchored locating extension: flush+load
// streams from the integrated memory controllers — whose die positions are
// public — pin the recovered map in absolute die coordinates, removing the
// mirror and translation ambiguities of the core-pair-only method.
package main

import (
	"context"
	"fmt"
	"log"

	"coremap"
	"coremap/internal/locate"
	"coremap/internal/machine"
	"coremap/internal/mesh"
)

func main() {
	// The heavily fused Ice Lake part: 18 cores + 8 LLC-only tiles on a
	// 40-core-tile die. Core-pair traffic alone leaves whole regions
	// under-determined here.
	host := machine.Generate(machine.SKU6354, 0, machine.Config{Seed: 11})

	plain, err := coremap.MapMachine(context.Background(), host, coremap.IceLakeXCCDie, coremap.Options{})
	if err != nil {
		log.Fatal(err)
	}
	anchored, err := coremap.MapMachine(context.Background(), host, coremap.IceLakeXCCDie, coremap.Options{MemoryAnchors: true})
	if err != nil {
		log.Fatal(err)
	}

	truth := make([]mesh.Coord, host.NumCHAs())
	for cha := range truth {
		truth[cha] = host.TrueCHACoord(cha)
	}
	_, plainAbs := locate.ScoreAbsolute(plain.Pos, truth)
	_, anchAbs := locate.ScoreAbsolute(anchored.Pos, truth)

	fmt.Printf("Xeon 6354, core-pair observations only:\n")
	fmt.Printf("  absolute accuracy %d/%d tiles (map defined only up to mirror/translation)\n  %s\n",
		plainAbs, len(truth), plain.SearchSummary())
	fmt.Printf("with memory anchors (IMC→core flush+load streams):\n")
	fmt.Printf("  absolute accuracy %d/%d tiles\n  %s\n\n", anchAbs, len(truth), anchored.SearchSummary())
	fmt.Printf("anchored map (absolute die coordinates):\n%s", anchored.Render())
}
