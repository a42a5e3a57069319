package probe

import (
	"context"
	"testing"

	"coremap/internal/machine"
)

func TestCalibrateNoiseQuietHost(t *testing.T) {
	m := machine.Generate(machine.SKU8259CL, 0, machine.Config{Seed: 1})
	p := newProber(t, m)
	p.bind(context.Background())
	if err := p.calibrateNoise(); err != nil {
		t.Fatal(err)
	}
	if p.noisePerOpMilli != 0 {
		t.Errorf("quiet host calibrated to %d milli-cycles/op, want 0", p.noisePerOpMilli)
	}
	if p.repetitionFactor() != 1 {
		t.Errorf("quiet host repetition factor = %d, want 1", p.repetitionFactor())
	}
}

func TestCalibrateNoiseBusyHost(t *testing.T) {
	m := machine.Generate(machine.SKU8259CL, 0, machine.Config{Seed: 2, NoiseFlits: 8, NoiseEveryOps: 8})
	p := newProber(t, m)
	p.bind(context.Background())
	if err := p.calibrateNoise(); err != nil {
		t.Fatal(err)
	}
	if p.noisePerOpMilli == 0 {
		t.Error("busy host calibrated to zero noise")
	}
	if p.repetitionFactor() < 2 {
		t.Errorf("busy host repetition factor = %d, want ≥2", p.repetitionFactor())
	}
	if p.repetitionFactor() > 16 {
		t.Errorf("repetition factor %d exceeds cap", p.repetitionFactor())
	}
}

func TestThresholdsScaleWithNoise(t *testing.T) {
	quiet := newProber(t, machine.Generate(machine.SKU8259CL, 0, machine.Config{Seed: 3}))
	quiet.bind(context.Background())
	if err := quiet.calibrateNoise(); err != nil {
		t.Fatal(err)
	}
	busy := newProber(t, machine.Generate(machine.SKU8259CL, 0, machine.Config{Seed: 3, NoiseFlits: 8, NoiseEveryOps: 8}))
	busy.bind(context.Background())
	if err := busy.calibrateNoise(); err != nil {
		t.Fatal(err)
	}
	if busy.counterThreshold(64, 128) <= quiet.counterThreshold(64, 128) {
		t.Error("busy-host counter threshold not above quiet-host threshold")
	}
	// The base floor still applies on quiet hosts.
	if got := quiet.counterThreshold(2, 2); got < baseThreshold {
		t.Errorf("threshold %d fell below the base %d", got, baseThreshold)
	}
}

// TestStep1SurvivesHeavyNoise is the probe-level robustness check: with
// calibration enabled, the OS↔CHA mapping must stay exact under
// background traffic that would defeat fixed thresholds.
func TestStep1SurvivesHeavyNoise(t *testing.T) {
	m := machine.Generate(machine.SKU8259CL, 0, machine.Config{Seed: 4, NoiseFlits: 12, NoiseEveryOps: 8})
	p := newProber(t, m)
	got, err := p.MapCoresToCHAs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := m.TrueOSToCHA()
	for cpu := range want {
		if got[cpu] != want[cpu] {
			t.Errorf("OS %d → CHA %d, want %d", cpu, got[cpu], want[cpu])
		}
	}
}
