package datasets

import (
	"testing"

	"pegasus/internal/distributed"
)

func TestScaleTierShape(t *testing.T) {
	tier := ScaleTier()
	if len(tier) != 2 {
		t.Fatalf("scale tier has %d datasets, want 2", len(tier))
	}
	wantOrder := []string{"S5", "S6"}
	for i, d := range tier {
		if d.Short != wantOrder[i] {
			t.Errorf("position %d: %s, want %s", i, d.Short, wantOrder[i])
		}
		if d.Name == "" || d.Kind == "" {
			t.Errorf("%s: missing metadata", d.Short)
		}
	}
	// The scale tier must be resolvable by code but never leak into the
	// Table II experiment registry.
	if d, err := ByShort("S5"); err != nil || d.Name != "Scale-100K" {
		t.Fatalf("ByShort(S5) = %v, %v", d, err)
	}
	for _, d := range Registry() {
		if d.Short == "S5" || d.Short == "S6" {
			t.Fatalf("scale dataset %s leaked into Registry()", d.Short)
		}
	}
}

// TestScaleTierGoldenFingerprint pins the 10^5-node fallback graph down to
// its exact edge structure: any drift in the BA generator, the graph
// builder, or the seed silently changes the graph behind every recorded
// scale measurement (EXPERIMENTS.md "Scale"), so drift must be a loud,
// deliberate change (regenerate the constant with distributed.GraphToken).
// The 10^6-node S6 pin lives in the scale-tagged smoke test.
func TestScaleTierGoldenFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 10^5-node graph")
	}
	d, err := ByShort("S5")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Load(1)
	if g.NumNodes() != 100_000 {
		t.Fatalf("|V| = %d, want 100000", g.NumNodes())
	}
	if g.NumEdges() != 799_964 {
		t.Fatalf("|E| = %d, want 799964", g.NumEdges())
	}
	const golden = "8c5b8c6afa642e80cb9a658d17f0a7a1eec8e840828d5fa9ea42ff1f50986579"
	if fp := distributed.GraphToken(g); fp != golden {
		t.Fatalf("S5 fingerprint drifted:\n got  %s\n want %s", fp, golden)
	}
}
