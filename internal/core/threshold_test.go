package core

import (
	"math"
	"testing"
)

func TestAdaptiveThresholdInitial(t *testing.T) {
	if initialTheta != 0.5 {
		t.Fatalf("initial = %v, want 0.5", initialTheta)
	}
}

func TestAdaptiveThresholdSelectsQuantile(t *testing.T) {
	p := Config{Beta: 0.3}
	rejected := []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.49}
	// ⌊0.3·10⌋ = 3rd largest = 0.40, but the schedule cap 1/(1+2) binds at
	// iteration 1.
	if got := p.nextTheta(1, rejected, 0.5); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("Next = %v, want capped 1/3", got)
	}
	// Deeper in, the quantile is below the cap and wins.
	low := []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10}
	if got := p.nextTheta(1, low, 0.5); got != 0.08 {
		t.Fatalf("Next = %v, want 3rd largest 0.08", got)
	}
}

func TestAdaptiveThresholdBetaNearZeroPicksMax(t *testing.T) {
	p := Config{Beta: 0.0001}
	rejected := []float64{0.1, 0.3, 0.2}
	if got := p.nextTheta(1, rejected, 0.5); got != 0.3 {
		t.Fatalf("Next = %v, want max 0.3", got)
	}
}

func TestAdaptiveThresholdEmptyKeepsCurrent(t *testing.T) {
	p := Config{Beta: 0.1}
	// Empty L keeps the current value, still subject to the schedule cap.
	if got := p.nextTheta(1, nil, 0.2); got != 0.2 {
		t.Fatalf("Next on empty L = %v, want 0.2", got)
	}
	if got := p.nextTheta(1, nil, 0.37); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("Next on empty L above cap = %v, want 1/3", got)
	}
}

func TestAdaptiveThresholdNeverIncreases(t *testing.T) {
	// All entries of L are below the current theta by construction; verify
	// the selected quantile respects that.
	p := Config{Beta: 0.5}
	cur := 0.4
	rejected := []float64{0.39, 0.1, 0.2, 0.05}
	if got := p.nextTheta(1, rejected, cur); got > cur {
		t.Fatalf("theta increased: %v > %v", got, cur)
	}
}

func TestFixedSchedule(t *testing.T) {
	p := Config{Threshold: FixedSchedule, MaxIter: 5}
	if initialTheta != 0.5 {
		t.Fatalf("initial = %v, want 0.5", initialTheta)
	}
	// After iteration t, the threshold for t+1 is 1/(1+t+1); at t_max it is 0.
	if got := p.nextTheta(1, nil, 0.5); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("Next(1) = %v, want 1/3", got)
	}
	if got := p.nextTheta(3, nil, 0.25); math.Abs(got-1.0/5) > 1e-12 {
		t.Fatalf("Next(3) = %v, want 1/5", got)
	}
	if got := p.nextTheta(4, nil, 0.2); got != 0 {
		t.Fatalf("Next(4) = %v, want 0 at t_max", got)
	}
	if got := p.nextTheta(17, nil, 0.2); got != 0 {
		t.Fatalf("Next(17) = %v, want 0 past t_max", got)
	}
}

func TestEntropyBits(t *testing.T) {
	// Degenerate blocks cost zero.
	if entropyBits(0, 0) != 0 || entropyBits(10, 0) != 0 || entropyBits(10, 10) != 0 {
		t.Fatal("degenerate entropy should be 0")
	}
	// Half-full block: n·H2(0.5) = n bits.
	if got := entropyBits(20, 10); math.Abs(got-10) > 1e-12 {
		t.Fatalf("entropyBits(20,10) = %v, want 10", got)
	}
	// Entropy is symmetric in density.
	if math.Abs(entropyBits(40, 8)-entropyBits(40, 32)) > 1e-12 {
		t.Fatal("entropy not symmetric in p vs 1-p")
	}
}
