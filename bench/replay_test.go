package main

import (
	"context"
	"testing"
)

// One traced map per workload must replay against its twin with zero
// mismatches, and a twin with other secrets must not.
func TestReplayOneMapPerWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in := w.pass(1, true)[0]
			r := &runner{w: w, insts: []instance{in}, rec: &record{}}
			var sums tracedSums
			r.timingMap(context.Background(), 0, r.newPass(), &sums)
			if len(r.rec.Problems) > 0 || r.rec.Failed > 0 {
				t.Fatalf("timing pass failed: %v (%d failed maps)", r.rec.Problems, r.rec.Failed)
			}
			if sums.maps != 1 || sums.mismatches != 0 {
				t.Fatalf("replayed %d maps with %d mismatches, want 1 map and none", sums.maps, sums.mismatches)
			}
			for ph := phaseNew; ph <= phaseStep2; ph++ {
				if sums.machine[ph] <= 0 {
					t.Errorf("phase %d replayed no machine time", ph)
				}
			}

			// A log replayed against a different chip diverges.
			var rec recorder
			rec.reset(w.machine(in))
			rec.mark(phaseStep1)
			for i := 0; i < 64; i++ {
				if _, err := rec.TimedLoad(1, 0x1000+uint64(i)*64); err != nil {
					t.Fatal(err)
				}
			}
			other := in
			other.seed++
			if _, mismatches := rec.replay(w.machine(other)); mismatches == 0 {
				t.Error("replay against another chip found no mismatch")
			}
		})
	}
}
