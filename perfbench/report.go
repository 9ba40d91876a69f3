package main

import (
	"fmt"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"edgeinfer/internal/core"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/metrics"
)

// warmUp is how long every workload runs before its timed region, so
// connections, arenas and the GC pacer reach steady state.
const warmUp = time.Second

// pass is what one timed stretch of a workload measured, in host time.
type pass struct {
	attempted, failed int64
	// ok counts operations answered correctly: HTTP 200 replies with the
	// expected argmax, or offline images whose every output matched.
	ok int64
	// images counts the inference calls behind the ok operations.
	images int64
	wall   time.Duration
	// latSec and doneAt are the host latency and completion time of each
	// ok operation; start is when the pass began.
	latSec   []float64
	doneAt   []time.Time
	start    time.Time
	heapPeak uint64
}

// measure runs drive for d, timing it and sampling the Go heap.
func measure(d time.Duration, drive func(time.Duration) pass) pass {
	h := startHeapSampler()
	start := time.Now()
	p := drive(d)
	p.wall = time.Since(start)
	p.start = start
	p.heapPeak = h.finish()
	return p
}

// window is the length of the slices a pass's rates are taken over.
const window = 500 * time.Millisecond

// perSec returns the rate of ok operations, scaled by perOp (inference
// calls per operation), as the interquartile mean over the pass's whole
// windows: a short stall on a shared host cannot move the figure. A pass
// shorter than four windows falls back to the plain mean.
func (p pass) perSec(perOp float64) float64 {
	n := int(p.wall / window)
	if n < 4 {
		return perOp * float64(p.ok) / p.wall.Seconds()
	}
	counts := make([]float64, n)
	for _, t := range p.doneAt {
		if w := int(t.Sub(p.start) / window); w < n {
			counts[w]++
		}
	}
	sort.Float64s(counts)
	mid := counts[n/4 : n-n/4]
	return perOp * mean(mid) / window.Seconds()
}

func (p pass) latencyMS() (p50, p99 float64) {
	ps := metrics.Percentiles(p.latSec, 50, 99)
	return ps[0] * 1e3, ps[1] * 1e3
}

// imagesPerOp is the inference calls behind each ok operation.
func (p pass) imagesPerOp() float64 {
	if p.ok == 0 {
		return 0
	}
	return float64(p.images) / float64(p.ok)
}

// endToEnd is the pass's end-to-end metric set. The p99 latency is
// printed but reported only as a per-layer metric: it does not repeat
// within a tenth from run to run.
func (p pass) endToEnd(setupS float64) map[string]metric {
	p50, _ := p.latencyMS()
	return map[string]metric{
		"req_per_s":      {p.perSec(1), "req/s"},
		"img_per_s":      {p.perSec(p.imagesPerOp()), "img/s"},
		"latency_p50_ms": {p50, "ms"},
		"setup_s":        {setupS, "s"},
		"heap_mb":        {float64(p.heapPeak) / (1 << 20), "MiB"},
	}
}

// print tables the pass's end-to-end numbers with their clock and the
// sample count behind each percentile.
func (p pass) print(label string) {
	p50, p99 := p.latencyMS()
	errFrac := 0.0
	if p.attempted > 0 {
		errFrac = float64(p.failed) / float64(p.attempted)
	}
	fmt.Printf("%s req_per_s=%.3f img_per_s=%.3f (host, %d ok in %.3fs)\n",
		label, p.perSec(1), p.perSec(p.imagesPerOp()), p.ok, p.wall.Seconds())
	fmt.Printf("%s latency_p50_ms=%.4f latency_p99_ms=%.4f (host, n=%d)\n", label, p50, p99, len(p.latSec))
	fmt.Printf("%s error_frac=%.6f (%d failed of %d attempted) heap_mb=%.3f (peak Go heap objects)\n",
		label, errFrac, p.failed, p.attempted, float64(p.heapPeak)/(1<<20))
}

// heapSampler records the peak of the Go heap's live-and-unswept object
// bytes while a pass runs.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			rtmetrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	return <-h.done
}

// overhead prints how much slower the traced pass ran than the
// untraced one, and the hooks' own cost per engine-image against the
// untraced per-image wall inferUs. The pass difference includes host
// drift between the two passes; the hook cost does not.
func overhead(untraced, traced pass, eng *core.Engine, dev *gpusim.Device, inferUs float64) {
	u50, _ := untraced.latencyMS()
	t50, _ := traced.latencyMS()
	ur, tr := untraced.perSec(1), traced.perSec(1)
	fmt.Printf("trace.overhead req_per_s %.3f -> %.3f (%+.2f%%), latency_p50_ms %.4f -> %.4f (%+.2f%%) (host)\n",
		ur, tr, 100*(tr-ur)/ur, u50, t50, 100*(t50-u50)/u50)
	ns, layers := hookCost(eng, dev)
	fmt.Printf("trace.hook_ns=%.1f per layer x %d layers = %.2f us per engine-image (%.2f%% of %.1f us) (host)\n",
		ns, layers, ns*float64(layers)/1e3, 100*ns*float64(layers)/1e3/inferUs, inferUs)
}

// layerMetrics are the per-layer figures a --trace 1 run reports as
// its metrics. A layer the workload bypasses reads 0.
type layerMetrics struct {
	latencyP99MS float64 // host, from the untraced pass
	// netserve and serve shares, from the traced pass.
	batchMean, netSelfFrac, netQueueFrac, serveSelfFrac float64
	// core: host wall per engine-image, allocations per image.
	inferUs, allocs, allocBytes float64
	refUs                       float64 // graph: FP32 reference host wall per image
	buildMs                     float64 // core builder: host wall of core.Build
	kindNs                      [numKinds]float64
}

func (l layerMetrics) metrics() map[string]metric {
	m := map[string]metric{
		"latency_p99_ms":           {l.latencyP99MS, "ms"},
		"netserve.batch_size_mean": {l.batchMean, "count"},
		"netserve.self_frac":       {l.netSelfFrac, "ratio"},
		"netserve.queue_frac":      {l.netQueueFrac, "ratio"},
		"serve.self_frac":          {l.serveSelfFrac, "ratio"},
		"core.infer_us_per_img":    {l.inferUs, "us"},
		"core.allocs_per_img":      {l.allocs, "count"},
		"core.bytes_per_img":       {l.allocBytes, "B"},
		"graph.ref_us_per_img":     {l.refUs, "us"},
		"core.build_ms":            {l.buildMs, "ms"},
	}
	for k, v := range l.kindNs {
		m[kindMetric[k]] = metric{v, "ns"}
	}
	return m
}

// print lists the figures not already tabled; scope says what the core
// and graph figures time.
func (l layerMetrics) print(scope string) {
	fmt.Printf("core.infer_us_per_img=%.3f graph.ref_us_per_img=%.3f core.build_ms=%.4f (host)\n", l.inferUs, l.refUs, l.buildMs)
	fmt.Printf("core.allocs_per_img=%.2f core.bytes_per_img=%.1f (counts)\n", l.allocs, l.allocBytes)
	fmt.Printf("netserve.self_frac=%.4f netserve.queue_frac=%.4f serve.self_frac=%.4f (host shares)\n", l.netSelfFrac, l.netQueueFrac, l.serveSelfFrac)
	fmt.Printf("scope: %s\n", scope)
}
