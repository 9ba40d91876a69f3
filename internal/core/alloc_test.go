package core

import (
	"testing"

	"edgeinfer/internal/kernels"
)

// TestInferBatchSteadyStateAllocs is the dynamic cross-check of the
// hotalloc analyzer's static verdict on Engine.InferBatch: once the
// arena and the pooled batch scratch are warm, per-batch allocation is a
// small constant owned by the caller-visible results (the outs slices
// and the graph output tensors, which flow to the caller and so never
// return to the arena) — never proportional to plan length times batch
// in bookkeeping or intermediate activations. The old implementation
// allocated four ledgers plus one activation map per image per call.
func TestInferBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts only hold without it")
	}
	defer kernels.SetWorkers(kernels.SetWorkers(1))
	g := tinyNet(t)
	e, err := Build(g, nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	xs := batchInputs(t, "steady-alloc-x", 4)
	for i := 0; i < 3; i++ { // warm the arena and scratch pools
		if _, err := e.InferBatch(xs); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.InferBatch(xs); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: 1 outs slice + len(xs) inner output slices, plus 2 allocs
	// (tensor header + data) per image for the graph output. Every
	// intermediate, conv/FC or reference-executed (the optimized tinynet
	// plan keeps a concat), comes from the arena.
	budget := float64(1 + len(xs) + 2*len(xs))
	if allocs > budget {
		t.Fatalf("InferBatch allocates %.1f objects per batch in steady state, budget %.0f", allocs, budget)
	}
}
