package core

import (
	"fmt"

	"edgeinfer/internal/graph"
	"edgeinfer/internal/tensor"
)

// Batched numeric inference: the one numeric layer loop. Infer and
// InferFaulty run it as a batch of one; InferBatch, InferBatchFaulty,
// InferBatchCtx and InferRangeCtx run it over a batch or a layer range.
// Layers run in plan order, and within each layer every image executes
// back to back — the software analogue of one batched kernel launch.
// That keeps each layer's weights hot in cache across the whole batch,
// resolves kernel variants and fusion metadata once per layer instead of
// once per image, and (on the fault path) draws launch and
// weight-corruption verdicts once per layer, the way a single batched
// launch would fail or corrupt.
//
// Per-image numerics do not depend on the batch: each image's
// activations flow through the same convApply/fcApply/EvalLayer calls,
// so on a pristine device InferBatch(xs)[i] is bit-identical to
// Infer(xs[i]).

// InferBatch runs the engine numerically on a batch of inputs and
// returns one output slice per input, in input order. It is
// InferBatchFaulty on a pristine device.
//
//rt:hotpath
func (e *Engine) InferBatch(xs []*tensor.Tensor) ([][]*tensor.Tensor, error) {
	return e.InferBatchFaulty(xs, nil)
}

// InferBatchFaulty is InferBatch consulting a fault injector. The
// injector is consulted once per layer — one Launch verdict and one
// weight-corruption draw cover the whole batch, modeling one batched
// kernel launch — while activation corruption still applies per image
// (each image's activation is a distinct tensor). Budget-
// carrying callers go through InferBatchCtx, which is this path with a
// layer-boundary guard armed.
func (e *Engine) InferBatchFaulty(xs []*tensor.Tensor, fi FaultInjector) ([][]*tensor.Tensor, error) {
	return e.inferBatchRange(xs, fi, nil, 0, -1, nil)
}

// inferBatchRange is the one batched-inference body, generalized to the
// half-open layer range [from, to) so a pipeline stage can run its
// slice of the graph on its own node (internal/cluster). from==0 with
// to<0 covers the whole graph and is exactly the pre-range body: same
// draw order, no allocation added. For from>0 each input tensor is
// bound as the boundary activation — the output of layer from-1 — so
// quantInput and consumer lookups resolve it by the producer's name.
// outNames, when non-nil, overrides the graph outputs as both the
// returned tensors and the arena keep set; stage callers pass the
// boundary layer's name so the hand-off tensor survives release.
func (e *Engine) inferBatchRange(xs []*tensor.Tensor, fi FaultInjector, guard layerGuard, from, to int, outNames []string) ([][]*tensor.Tensor, error) {
	if !e.Numeric {
		return nil, fmt.Errorf("core: engine %s is timing-only (no weights materialized)", e.Key())
	}
	if len(xs) == 0 {
		return nil, nil
	}
	for i, x := range xs {
		if x == nil {
			return nil, fmt.Errorf("core: infer batch %s: input %d is nil", e.Key(), i)
		}
	}
	g := e.Graph
	if to < 0 {
		to = len(g.Layers)
	}
	if from < 0 || from > to || to > len(g.Layers) {
		return nil, fmt.Errorf("core: infer %s: bad layer range [%d,%d) of %d", e.Key(), from, to, len(g.Layers))
	}
	if outNames == nil {
		outNames = g.Outputs
	}
	bs := batchScratchPool.Get().(*batchScratch)
	acts := bs.actMaps(len(xs))
	owned := bs.ownedBuf()
	defer func() {
		keep := bs.keepSet()
		for _, x := range xs {
			keep[x] = true
		}
		for _, am := range acts {
			for _, name := range outNames {
				keep[am[name]] = true
			}
		}
		actArena.releaseActs(owned, keep)
		bs.release(owned)
	}()
	if from > 0 {
		bname := g.Layers[from-1].Name
		for img, x := range xs {
			acts[img][bname] = x
		}
	}
	for li := from; li < to; li++ {
		l := g.Layers[li]
		if guard != nil && l.Op != graph.OpInput {
			if err := guard(li, l.Name); err != nil {
				return nil, fmt.Errorf("core: infer %s: %w", e.Key(), err)
			}
		}
		if fi != nil && l.Op != graph.OpInput {
			if lf := fi.Launch(li, l.Name); lf.Fail {
				return nil, fmt.Errorf("core: infer %s layer %s: %w", e.Key(), l.Name, ErrLaunchFailed)
			}
		}
		isConv := l.Op == graph.OpConv
		isFC := l.Op == graph.OpFC
		var w, b *tensor.Tensor
		if isConv || isFC {
			w, b = l.Weights["w"], l.Weights["b"]
			if w == nil {
				kind := "conv"
				if isFC {
					kind = "fc"
				}
				return nil, fmt.Errorf("core: infer %s layer %s: %s %s has no weights", e.Key(), l.Name, kind, l.Name)
			}
			if fi != nil {
				w = fi.CorruptWeights(l.Name, "w", w)
			}
		}
		for img, x := range xs {
			var y *tensor.Tensor
			var err error
			switch {
			case l.Op == graph.OpInput:
				y = x
			case isConv:
				y, err = e.convApply(l, acts[img], w, b)
			case isFC:
				y, err = e.fcApply(l, acts[img], w, b)
			default:
				ins := bs.inputs(len(l.Inputs))
				for i, name := range l.Inputs {
					ins[i] = acts[img][name]
				}
				y, err = graph.EvalLayerInto(l, ins, arenaTensor)
			}
			if err != nil {
				return nil, fmt.Errorf("core: infer %s layer %s: %w", e.Key(), l.Name, err)
			}
			// Activation corruption: never on the caller's input tensor
			// (it outlives this request); pass-through ops alias it.
			if fi != nil && l.Op != graph.OpInput && y != x {
				fi.CorruptActivation(l.Name, y)
			}
			acts[img][l.Name] = y
			if l.Op != graph.OpInput {
				owned = append(owned, y)
			}
		}
	}
	outs := make([][]*tensor.Tensor, len(xs))
	for img := range xs {
		outs[img] = make([]*tensor.Tensor, len(outNames))
		for i, name := range outNames {
			outs[img][i] = acts[img][name]
		}
	}
	return outs, nil
}
