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
	// Engine.Infer is the same path at a batch of one.
	for _, tc := range []struct {
		name string
		n    int
		run  func() error
	}{
		{"InferBatch", len(xs), func() error { _, err := e.InferBatch(xs); return err }},
		{"Infer", 1, func() error { _, err := e.Infer(xs[0]); return err }},
	} {
		for i := 0; i < 3; i++ { // warm the arena and scratch pools
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
		})
		// Budget: 1 outs slice + n inner output slices, plus 2 allocs
		// (tensor header + data) per image for the graph output. Every
		// intermediate, conv/FC or reference-executed (the optimized
		// tinynet plan keeps a concat), comes from the arena.
		budget := float64(1 + tc.n + 2*tc.n)
		if allocs > budget {
			t.Fatalf("%s allocates %.1f objects per call in steady state, budget %.0f", tc.name, allocs, budget)
		}
	}
}
