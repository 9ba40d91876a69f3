package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"edgeinfer/internal/fixrand"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/models"
	"edgeinfer/internal/tensor"
)

func batchInputs(t *testing.T, key string, n int) []*tensor.Tensor {
	t.Helper()
	src := fixrand.NewKeyed(key)
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		x := tensor.New(1, 4, 8, 8)
		for j := range x.Data {
			x.Data[j] = float32(src.NormFloat64())
		}
		xs[i] = x
	}
	return xs
}

func sameBitsBatch(t *testing.T, label string, got, want []*tensor.Tensor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", label, len(got), len(want))
	}
	for oi := range want {
		if len(got[oi].Data) != len(want[oi].Data) {
			t.Fatalf("%s: output %d has %d elems, want %d", label, oi, len(got[oi].Data), len(want[oi].Data))
		}
		for j := range want[oi].Data {
			if math.Float32bits(got[oi].Data[j]) != math.Float32bits(want[oi].Data[j]) {
				t.Fatalf("%s: output %d diverges at %d: %v vs %v",
					label, oi, j, got[oi].Data[j], want[oi].Data[j])
			}
		}
	}
}

func TestInferBatchMatchesInfer(t *testing.T) {
	g := tinyNet(t)
	e, err := Build(g, nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	xs := batchInputs(t, "infer-batch-x", 5)
	batch, err := e.InferBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(xs) {
		t.Fatalf("batch returned %d results for %d inputs", len(batch), len(xs))
	}
	for i, x := range xs {
		want, err := e.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		sameBitsBatch(t, fmt.Sprintf("image %d", i), batch[i], want)
	}
}

func TestInferBatchValidation(t *testing.T) {
	g := tinyNet(t)
	e, err := Build(g, nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	outs, err := e.InferBatch(nil)
	if err != nil || outs != nil {
		t.Fatalf("empty batch: got (%v, %v), want (nil, nil)", outs, err)
	}
	xs := batchInputs(t, "batch-validate", 1)
	if _, err := e.InferBatch([]*tensor.Tensor{xs[0], nil}); err == nil || !strings.Contains(err.Error(), "input 1 is nil") {
		t.Fatalf("nil input: got %v", err)
	}
	timed, err := Build(models.MustBuild("resnet18"), nxCfg(1)) // no weights materialized
	if err != nil {
		t.Fatal(err)
	}
	if timed.Numeric {
		t.Fatal("full-scale graph should build timing-only")
	}
	if _, err := timed.InferBatch(xs); err == nil || !strings.Contains(err.Error(), "timing-only") {
		t.Fatalf("timing-only engine: got %v", err)
	}
}

// countingFaults records injector consultations without injecting faults,
// except for an optional layer whose launch fails.
type countingFaults struct {
	failLayer string
	launches  map[string]int
	weights   map[string]int
	acts      map[string]int
}

func newCountingFaults() *countingFaults {
	return &countingFaults{
		launches: map[string]int{},
		weights:  map[string]int{},
		acts:     map[string]int{},
	}
}

func (f *countingFaults) MemcpyH2D(bytes int64) (int, error) { return 0, nil }

func (f *countingFaults) Launch(index int, symbol string) LaunchFault {
	f.launches[symbol]++
	return LaunchFault{Fail: symbol == f.failLayer}
}

func (f *countingFaults) CorruptWeights(layer, key string, w *tensor.Tensor) *tensor.Tensor {
	f.weights[layer]++
	return w
}

func (f *countingFaults) CorruptActivation(layer string, y *tensor.Tensor) {
	f.acts[layer]++
}

func TestInferBatchFaultyDrawsOncePerLayer(t *testing.T) {
	g := tinyNet(t)
	e, err := Build(g, nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	xs := batchInputs(t, "batch-faulty", 4)
	fi := newCountingFaults()
	if _, err := e.InferBatchFaulty(xs, fi); err != nil {
		t.Fatal(err)
	}
	for _, l := range e.Graph.Layers {
		want := 1
		if l.Op == graph.OpInput {
			want = 0
		}
		if got := fi.launches[l.Name]; got != want {
			t.Errorf("layer %s drew %d launch verdicts, want %d (one per batched launch)", l.Name, got, want)
		}
		if l.Op == graph.OpConv || l.Op == graph.OpFC {
			if got := fi.weights[l.Name]; got != 1 {
				t.Errorf("layer %s drew %d weight corruptions, want 1", l.Name, got)
			}
		}
		// Activation corruption stays per image: each image's activation
		// is a distinct tensor.
		if l.Op != graph.OpInput {
			if got := fi.acts[l.Name]; got != len(xs) {
				t.Errorf("layer %s drew %d activation corruptions, want %d (one per image)", l.Name, got, len(xs))
			}
		}
	}

	fail := newCountingFaults()
	fail.failLayer = e.Graph.Layers[len(e.Graph.Layers)-1].Name
	if _, err := e.InferBatchFaulty(xs, fail); !errors.Is(err, ErrLaunchFailed) {
		t.Fatalf("failed launch: got %v, want ErrLaunchFailed", err)
	}
}

// recordingFaults logs every injector consultation in call order, and
// fails the launch of failLayer (when set).
type recordingFaults struct {
	failLayer string
	calls     []string
}

func (f *recordingFaults) MemcpyH2D(bytes int64) (int, error) { return 0, nil }

func (f *recordingFaults) Launch(index int, symbol string) LaunchFault {
	f.calls = append(f.calls, fmt.Sprintf("Launch(%d,%s)", index, symbol))
	return LaunchFault{Fail: symbol == f.failLayer}
}

func (f *recordingFaults) CorruptWeights(layer, key string, w *tensor.Tensor) *tensor.Tensor {
	f.calls = append(f.calls, fmt.Sprintf("CorruptWeights(%s,%s)", layer, key))
	return w
}

func (f *recordingFaults) CorruptActivation(layer string, y *tensor.Tensor) {
	f.calls = append(f.calls, fmt.Sprintf("CorruptActivation(%s)", layer))
}

// TestSingleImageFaultDrawOrder pins the injector call sequence of one
// image, which seeded fault campaigns replay: for each non-input layer
// in plan order, Launch, then CorruptWeights for conv/FC, then
// CorruptActivation. A failing Launch ends the sequence at that layer.
// InferFaulty and a batch of one must draw identically.
func TestSingleImageFaultDrawOrder(t *testing.T) {
	g := tinyNet(t)
	e, err := Build(g, nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	x := batchInputs(t, "draw-order", 1)[0]
	expected := func(failLayer string) []string {
		var want []string
		for i, l := range e.Graph.Layers {
			if l.Op == graph.OpInput {
				continue
			}
			want = append(want, fmt.Sprintf("Launch(%d,%s)", i, l.Name))
			if l.Name == failLayer {
				return want
			}
			if l.Op == graph.OpConv || l.Op == graph.OpFC {
				want = append(want, fmt.Sprintf("CorruptWeights(%s,w)", l.Name))
			}
			want = append(want, fmt.Sprintf("CorruptActivation(%s)", l.Name))
		}
		return want
	}
	paths := map[string]func(FaultInjector) error{
		"InferFaulty": func(fi FaultInjector) error {
			_, err := e.InferFaulty(x, fi)
			return err
		},
		"InferBatchFaulty": func(fi FaultInjector) error {
			_, err := e.InferBatchFaulty([]*tensor.Tensor{x}, fi)
			return err
		},
	}
	// Fail at a mid-plan layer with weights, so the truncation drops the
	// layer's own weight draw as well as every later layer.
	failLayer := ""
	for _, l := range e.Graph.Layers[1 : len(e.Graph.Layers)-1] {
		if l.Op == graph.OpConv || l.Op == graph.OpFC {
			failLayer = l.Name
			break
		}
	}
	if failLayer == "" {
		t.Fatal("tinynet plan has no mid-plan conv/FC layer to fail")
	}
	for name, run := range paths {
		rec := &recordingFaults{}
		if err := run(rec); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := expected(""); !reflect.DeepEqual(rec.calls, want) {
			t.Errorf("%s draws\n%v\nwant\n%v", name, rec.calls, want)
		}
		rec = &recordingFaults{failLayer: failLayer}
		if err := run(rec); !errors.Is(err, ErrLaunchFailed) {
			t.Fatalf("%s with failing launch at %s: got %v, want ErrLaunchFailed", name, failLayer, err)
		}
		if want := expected(failLayer); !reflect.DeepEqual(rec.calls, want) {
			t.Errorf("%s draws with failing launch at %s\n%v\nwant\n%v", name, failLayer, rec.calls, want)
		}
	}
}

func TestInferOutputsSurviveArenaRecycling(t *testing.T) {
	// Graph outputs are kept out of the arena: a later inference must not
	// recycle (and overwrite) buffers the caller still holds.
	g := tinyNet(t)
	e, err := Build(g, nxCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	xs := batchInputs(t, "arena-keep", 4)
	first, err := e.Infer(xs[0])
	if err != nil {
		t.Fatal(err)
	}
	snap := append([]float32(nil), first[0].Data...)
	for _, x := range xs[1:] {
		if _, err := e.Infer(x); err != nil {
			t.Fatal(err)
		}
		if _, err := e.InferBatch(xs); err != nil {
			t.Fatal(err)
		}
	}
	for j := range snap {
		if math.Float32bits(first[0].Data[j]) != math.Float32bits(snap[j]) {
			t.Fatalf("held output mutated at %d: %v vs %v", j, first[0].Data[j], snap[j])
		}
	}
}

func TestTensorArenaRecycling(t *testing.T) {
	a := newTensorArena()
	t1 := a.get(1, 2, 3, 4)
	a.put(t1)
	if t2 := a.get(1, 2, 3, 4); t2 != t1 {
		t.Fatal("arena did not recycle the freed buffer")
	}
	if t3 := a.get(1, 2, 3, 4); t3 == t1 {
		t.Fatal("arena handed the same buffer out twice")
	}
	// The free list is capped per shape.
	for i := 0; i < arenaMaxPerShape+3; i++ {
		a.put(tensor.New(2, 2, 2, 2))
	}
	if n := len(a.free[[4]int{2, 2, 2, 2}]); n != arenaMaxPerShape {
		t.Fatalf("free list holds %d buffers, want cap %d", n, arenaMaxPerShape)
	}
}

func TestConcurrentInferSharedEngine(t *testing.T) {
	// Many goroutines on one engine, and on a second build of the same
	// network that cycles through the same activation shapes in the one
	// process arena: the arena must never hand the same buffer to two
	// in-flight inferences, so every result stays bit-identical to its
	// serial reference.
	g := tinyNet(t)
	var engines [2]*Engine
	for bi := range engines {
		e, err := Build(g, nxCfg(bi+1))
		if err != nil {
			t.Fatal(err)
		}
		engines[bi] = e
	}
	xs := batchInputs(t, "concurrent-infer", 8)
	refs := make([][]*tensor.Tensor, len(xs))
	for i, x := range xs {
		r, err := engines[i%2].Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = r
	}
	var wg sync.WaitGroup
	errc := make(chan error, len(xs)*6)
	for gi := range xs {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			e := engines[gi%2]
			for it := 0; it < 5; it++ {
				var got []*tensor.Tensor
				var err error
				if it%2 == 0 {
					got, err = e.Infer(xs[gi])
				} else {
					var outs [][]*tensor.Tensor
					outs, err = e.InferBatch(xs[gi : gi+1])
					if err == nil {
						got = outs[0]
					}
				}
				if err != nil {
					errc <- err
					return
				}
				for oi := range refs[gi] {
					for j := range refs[gi][oi].Data {
						if math.Float32bits(got[oi].Data[j]) != math.Float32bits(refs[gi][oi].Data[j]) {
							errc <- fmt.Errorf("goroutine %d iter %d: output %d diverges at %d", gi, it, oi, j)
							return
						}
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
