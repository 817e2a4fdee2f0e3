package bench

import (
	"context"
	"testing"

	"absolver/internal/mc"
)

func TestCheckInstancesBuild(t *testing.T) {
	for _, inst := range CheckInstances() {
		prog, err := inst.Build()
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		if prog.Main() == nil {
			t.Fatalf("%s: empty program", inst.Name)
		}
	}
}

// TestCheckSteeringWarmAndCold checks the steering instance end to end in
// both session modes. The paper's query: the critical driving situation is
// reachable, so the safety property falsifies at once with a certified
// test vector.
func TestCheckSteeringWarmAndCold(t *testing.T) {
	var inst CheckInstance
	for _, c := range CheckInstances() {
		if c.Name == "steering" {
			inst = c
		}
	}
	if inst.Name == "" {
		t.Fatal("no steering instance")
	}
	prog, err := inst.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, cold := range []bool{false, true} {
		res, err := mc.Check(context.Background(), prog, mc.Options{
			Property: inst.Property, MaxDepth: inst.Depth, Cold: cold,
			InputBounds: inst.Bounds,
		})
		if err != nil {
			t.Fatalf("cold=%v: %v", cold, err)
		}
		if res.Verdict != mc.Falsified || res.K != 0 || !res.Certified {
			t.Fatalf("cold=%v: result = %+v, want certified falsification at 0", cold, res)
		}
	}
}
