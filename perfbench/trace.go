package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"edgeinfer/internal/core"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/netserve"
	"edgeinfer/internal/rtctx"
	"edgeinfer/internal/tensor"
)

// Op kinds the per-layer host time is folded into.
const (
	kindConv = iota
	kindFC
	kindOther
	numKinds
)

var kindMetric = [numKinds]string{"kernels.conv_ns_per_img", "kernels.fc_ns_per_img", "core.other_ns_per_img"}

func kindOf(op graph.OpType) int {
	switch op {
	case graph.OpConv:
		return kindConv
	case graph.OpFC:
		return kindFC
	}
	return kindOther
}

// tracer collects the instrumented pass's spans: per-layer host time
// from layerTimers and ServeBatch walls from timedBackend. Every span is
// stamped from the benchmark's own hooks around calls into the program;
// nothing inside the program is instrumented.
type tracer struct {
	mu      sync.Mutex
	timers  []*layerTimer
	batches []batchSpan
}

// batchSpan is one Backend.ServeBatch call seen by timedBackend.
type batchSpan struct {
	wall   time.Duration
	size   int
	simSec float64 // the batch's simulated service latency
}

// timer returns a fresh no-fault injector that times eng's layers.
func (tr *tracer) timer(model string, eng *core.Engine, dev *gpusim.Device) *layerTimer {
	t := &layerTimer{tr: tr, model: model, eng: eng, dev: dev, kinds: map[string]int{}, ns: map[string]int64{},
		simSec: eng.ExpectedLatencySec(dev, false)}
	for _, l := range eng.Graph.Layers {
		if l.Op == graph.OpInput {
			continue
		}
		if t.first == "" {
			t.first = l.Name
		}
		t.kinds[l.Name] = kindOf(l.Op)
	}
	tr.mu.Lock()
	tr.timers = append(tr.timers, t)
	tr.mu.Unlock()
	return t
}

// flush ends every layer span still open: called when the call that
// ran the layers has returned.
func (tr *tracer) flush() {
	now := time.Now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, t := range tr.timers {
		t.closeLocked(now)
	}
}

// layerTimer is a core.FaultInjector that injects nothing and stamps
// each layer boundary of one engine: Launch opens a layer, the layer's
// last CorruptActivation ends it. Launch calls whose name is not a layer
// of the engine come from the simulated timing pass (kernel symbols)
// and are ignored. One goroutine drives an engine at a time.
type layerTimer struct {
	tr    *tracer
	model string
	eng   *core.Engine
	dev   *gpusim.Device
	kinds map[string]int
	first string // first computing layer: one activation per image
	// simSec is the engine's expected simulated latency per inference.
	simSec float64

	// Owned by the inferring goroutine.
	open        string
	start, last time.Time

	// Guarded by tr.mu.
	ns     map[string]int64
	images int64
}

func (t *layerTimer) MemcpyH2D(int64) (int, error) { return 0, nil }

func (t *layerTimer) Launch(_ int, name string) core.LaunchFault {
	if _, ok := t.kinds[name]; !ok {
		return core.LaunchFault{}
	}
	now := time.Now()
	t.tr.mu.Lock()
	t.closeLocked(now)
	t.tr.mu.Unlock()
	t.open, t.start, t.last = name, now, time.Time{}
	return core.LaunchFault{}
}

func (t *layerTimer) CorruptWeights(_, _ string, w *tensor.Tensor) *tensor.Tensor { return w }

func (t *layerTimer) CorruptActivation(name string, _ *tensor.Tensor) {
	t.last = time.Now()
	if name == t.first {
		t.tr.mu.Lock()
		t.images++
		t.tr.mu.Unlock()
	}
}

// closeLocked books the open layer. A layer that aliased its input
// never reports an activation; the next boundary ends it.
func (t *layerTimer) closeLocked(now time.Time) {
	if t.open == "" {
		return
	}
	end := t.last
	if end.IsZero() {
		end = now
	}
	t.ns[t.open] += int64(end.Sub(t.start))
	t.open = ""
}

// timedBackend wraps a netserve.Backend and times each ServeBatch.
type timedBackend struct {
	netserve.Backend
	tr *tracer
}

func (b *timedBackend) ServeBatch(ctx *rtctx.Request, xs []*tensor.Tensor, runIndex int) (*netserve.BatchAnswer, error) {
	start := time.Now()
	ans, err := b.Backend.ServeBatch(ctx, xs, runIndex)
	wall := time.Since(start)
	b.tr.flush()
	span := batchSpan{wall: wall, size: len(xs)}
	if ans != nil {
		span.simSec = ans.LatencySec
	}
	b.tr.mu.Lock()
	b.tr.batches = append(b.tr.batches, span)
	b.tr.mu.Unlock()
	return ans, err
}

// layerRow is one layer's traced cost per image, in both clocks.
type layerRow struct {
	key    string
	op     string
	hostNs float64 // host wall ns per engine-image
	simUs  float64 // simulated device µs per engine-image
}

// layerSummary folds the timers into per-kind and per-layer costs per
// engine-image. Layers are keyed model/layer, so the builds of one model
// share rows; simulated costs are weighted by each build's images.
type layerSummary struct {
	images  int64
	totalNs float64 // all layer spans, ns per engine-image
	kindNs  [numKinds]float64
	kindSim [numKinds]float64 // µs per engine-image
	rows    []layerRow
}

func (tr *tracer) summary() layerSummary {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var s layerSummary
	type acc struct {
		op          string
		ns, simUsIm float64
	}
	rows := map[string]*acc{}
	for _, t := range tr.timers {
		if t.images == 0 {
			continue
		}
		s.images += t.images
		sim := t.eng.LayerCostsSec(t.dev)
		for _, l := range t.eng.Graph.Layers {
			k, ok := t.kinds[l.Name]
			if !ok {
				continue
			}
			ns := float64(t.ns[l.Name])
			simUs := sim[l.Name] * 1e6 * float64(t.images)
			s.totalNs += ns
			s.kindNs[k] += ns
			s.kindSim[k] += simUs
			key := t.model + "/" + l.Name
			a := rows[key]
			if a == nil {
				a = &acc{op: l.Op.String()}
				rows[key] = a
			}
			a.ns += ns
			a.simUsIm += simUs
		}
	}
	if s.images == 0 {
		return s
	}
	n := float64(s.images)
	s.totalNs /= n
	for k := range s.kindNs {
		s.kindNs[k] /= n
		s.kindSim[k] /= n
	}
	for key, a := range rows {
		s.rows = append(s.rows, layerRow{key: key, op: a.op, hostNs: a.ns / n, simUs: a.simUsIm / n})
	}
	sort.Slice(s.rows, func(i, j int) bool { return s.rows[i].key < s.rows[j].key })
	return s
}

// print tables the per-layer costs: host wall ns beside simulated µs.
// Per-layer rows are shares of the mean engine-image, so they add up to
// the per-kind rows.
func (s layerSummary) print() {
	fmt.Printf("%-46s %-10s %16s %16s\n", "layer (per engine-image)", "op", "host ns (wall)", "sim us (device)")
	for _, r := range s.rows {
		fmt.Printf("%-46s %-10s %16.1f %16.3f\n", r.key, r.op, r.hostNs, r.simUs)
	}
	simNames := [numKinds]string{"sim.layer_us.conv", "sim.layer_us.fc", "sim.layer_us.other"}
	for k := range s.kindNs {
		fmt.Printf("%-46s %-10s %16.1f %16.3f\n", kindMetric[k]+" | "+simNames[k], "", s.kindNs[k], s.kindSim[k])
	}
	fmt.Printf("traced engine-images=%d\n", s.images)
}

// reset drops everything recorded so far (the warm-up). A nil tracer
// records nothing.
func (tr *tracer) reset() {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, t := range tr.timers {
		t.ns = map[string]int64{}
		t.images = 0
	}
	tr.batches = nil
}

// done ends the timer's open layer once its inference has returned.
func (t *layerTimer) done() {
	now := time.Now()
	t.tr.mu.Lock()
	t.closeLocked(now)
	t.tr.mu.Unlock()
}

// hookCost times one layer's pair of hooks (Launch then
// CorruptActivation) on a scratch tracer and returns the cost in ns
// together with eng's hooked layers per image: their product bounds what
// tracing adds to one engine-image, free of the host drift that moves
// the untraced-versus-traced difference.
func hookCost(eng *core.Engine, dev *gpusim.Device) (nsPerLayer float64, layers int) {
	t := (&tracer{}).timer("probe", eng, dev)
	const n = 100000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.Launch(i, t.first)
		t.CorruptActivation(t.first, nil)
	}
	t.done()
	return float64(time.Since(start).Nanoseconds()) / n, len(t.kinds)
}
