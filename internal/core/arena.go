package core

import (
	"sync"

	"edgeinfer/internal/tensor"
)

// tensorArena is a shape-keyed free list of activation buffers. Repeated
// inference allocates the same ladder of intermediate tensor shapes every
// time; recycling them removes nearly all steady-state GC churn from
// Engine.Infer. Buffers come back from get with stale contents — every
// consumer (ExecConvInto/ExecFCInto, the fake-quant copy, the pooling,
// softmax and flatten outputs of graph.EvalLayerInto) overwrites every
// element.
//
// The arena is safe for concurrent use: get removes a buffer from the
// free list before handing it out, so two inferences running at once
// never share a buffer.
type tensorArena struct {
	mu   sync.Mutex
	free map[[4]int][]*tensor.Tensor
}

// arenaMaxPerShape caps how many idle buffers of one shape the arena
// retains, bounding resident memory under concurrent inference bursts.
const arenaMaxPerShape = 8

func newTensorArena() *tensorArena {
	return &tensorArena{free: map[[4]int][]*tensor.Tensor{}}
}

// actArena is the process's one activation arena, shared by every engine:
// engines of the same or similar networks cycle through the same shapes,
// so one free list capped per shape holds fewer idle buffers than one per
// engine would.
var actArena = newTensorArena()

// arenaTensor is actArena.get as a plain function, the allocator the
// reference-executed layers draw their outputs from (a method value would
// allocate a closure per call).
//
//rt:hotpath
func arenaTensor(n, c, h, w int) *tensor.Tensor { return actArena.get(n, c, h, w) }

// get returns a buffer of the given shape, recycled if one is free.
// Steady state hits the free list; the tensor.New calls are the warm-up
// miss path.
//
//rt:hotpath
func (a *tensorArena) get(n, c, h, w int) *tensor.Tensor {
	k := [4]int{n, c, h, w}
	a.mu.Lock()
	if ts := a.free[k]; len(ts) > 0 {
		t := ts[len(ts)-1]
		ts[len(ts)-1] = nil
		a.free[k] = ts[:len(ts)-1]
		a.mu.Unlock()
		return t
	}
	a.mu.Unlock()
	return tensor.New(n, c, h, w)
}

// put returns a buffer to the free list. The caller must not retain any
// reference to t afterwards.
//
//rt:hotpath
func (a *tensorArena) put(t *tensor.Tensor) {
	if t == nil {
		return
	}
	k := [4]int{t.N, t.C, t.H, t.W}
	a.mu.Lock()
	if len(a.free[k]) < arenaMaxPerShape {
		a.free[k] = append(a.free[k], t)
	}
	a.mu.Unlock()
}

// releaseActs returns every arena-owned intermediate of one inference,
// keeping the graph outputs (which the caller now owns) and the caller's
// input. Pass-through layers (dropout, single-input add) alias earlier
// activations, so buffers are deduplicated by pointer before release.
// Deduplication marks visited buffers in the caller's keep map instead
// of allocating a per-call set.
//
//rt:hotpath
func (a *tensorArena) releaseActs(owned []*tensor.Tensor, keep map[*tensor.Tensor]bool) {
	for _, t := range owned {
		if t == nil || keep[t] {
			continue
		}
		keep[t] = true // released: later aliases of t must not double-free
		a.put(t)
	}
}
