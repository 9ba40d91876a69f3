package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"

	"edgeinfer/internal/core"
	"edgeinfer/internal/fixrand"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/metrics"
	"edgeinfer/internal/models"
	"edgeinfer/internal/tensor"
)

// proxyModels are the numeric proxies of the paper's accuracy tables.
var proxyModels = []string{"alexnet", "googlenet", "resnet18", "inceptionv4", "vgg16"}

// offlineBuild is one engine build per model: platform and build id.
type offlineBuild struct {
	name string
	spec gpusim.DeviceSpec
	id   int
}

// offlineBuilds are the engines of Tables III–VI: two NX builds (the
// same-platform pair) and one AGX build (the cross-platform partner).
var offlineBuilds = []offlineBuild{
	{"NX1", gpusim.XavierNX(), 1},
	{"NX2", gpusim.XavierNX(), 2},
	{"AGX1", gpusim.XavierAGX(), 1},
}

const (
	// offlineImages is the size of the seeded image set; the timed loop
	// cycles through it.
	offlineImages = 60
	// recordedDigest is the accuracy digest of defaultSeed: argmaxes,
	// top-1 errors and cross-build mismatches. A run on defaultSeed whose
	// digest differs has changed the numerics.
	recordedDigest = "37e146cc24e7131f"
)

// offlineSystem is every engine and FP32 reference graph of the sweep.
type offlineSystem struct {
	engines [][]*core.Engine // [model][build]
	devs    []*gpusim.Device // [build]
	refs    []*graph.Graph   // [model]
}

func (*offlineSystem) close() {}

func proxyGraph(model string) (*graph.Graph, error) {
	return models.BuildProxy(model, models.DefaultProxyOptions())
}

// setUpOffline builds every engine cold and every FP32 reference graph.
func setUpOffline() (*offlineSystem, error) {
	s := &offlineSystem{}
	for _, b := range offlineBuilds {
		s.devs = append(s.devs, gpusim.NewDevice(b.spec, gpusim.PaperLatencyClock(b.spec)))
	}
	for _, m := range proxyModels {
		var row []*core.Engine
		for _, b := range offlineBuilds {
			g, err := proxyGraph(m)
			if err != nil {
				return nil, err
			}
			e, err := core.Build(g, core.DefaultConfig(b.spec, b.id))
			if err != nil {
				return nil, fmt.Errorf("build %s %s: %w", m, b.name, err)
			}
			row = append(row, e)
		}
		ref, err := proxyGraph(m)
		if err != nil {
			return nil, err
		}
		s.engines = append(s.engines, row)
		s.refs = append(s.refs, ref)
	}
	return s, nil
}

// paths per model: every build, then the FP32 reference.
func numPaths() int { return len(offlineBuilds) + 1 }

// offlineWant holds the expected output of every path on every image:
// [model][path][image], path len(offlineBuilds) being the reference.
type offlineWant [][][]*tensor.Tensor

// expected computes the answers before the timed region: InferBatch on
// every engine, UnoptimizedInfer for the reference. It then runs
// per-image Infer over the whole set and requires bit-identical outputs.
func (s *offlineSystem) expected(images []labeled) (offlineWant, error) {
	xs := make([]*tensor.Tensor, len(images))
	for i, l := range images {
		xs[i] = l.image
	}
	want := make(offlineWant, len(proxyModels))
	for m, row := range s.engines {
		want[m] = make([][]*tensor.Tensor, numPaths())
		for b, e := range row {
			outs, err := e.InferBatch(xs)
			if err != nil {
				return nil, fmt.Errorf("%s %s InferBatch: %w", proxyModels[m], offlineBuilds[b].name, err)
			}
			for i, o := range outs {
				want[m][b] = append(want[m][b], o[0])
				one, err := e.Infer(xs[i])
				if err != nil {
					return nil, err
				}
				if !sameBits(one[0], o[0]) {
					return nil, fmt.Errorf("%s %s image %d: per-image Infer differs from InferBatch", proxyModels[m], offlineBuilds[b].name, i)
				}
			}
		}
		for _, x := range xs {
			outs, err := core.UnoptimizedInfer(s.refs[m], x)
			if err != nil {
				return nil, err
			}
			want[m][len(offlineBuilds)] = append(want[m][len(offlineBuilds)], outs[0])
		}
	}
	return want, nil
}

// digest summarizes the sweep's accuracy results — every argmax, top-1
// error per engine and cross-build mismatch counts — as the Tables
// III–VI rows it feeds, and hashes them.
func digest(images []labeled, want offlineWant) (string, string) {
	labels := make([]int, len(images))
	for i, l := range images {
		labels[i] = l.label
	}
	var text strings.Builder
	for m, paths := range want {
		args := make([][]int, len(paths))
		for p, outs := range paths {
			for _, o := range outs {
				args[p] = append(args[p], argmax(o))
			}
			fmt.Fprintf(&text, "%s/%s argmax %v\n", proxyModels[m], pathName(p), args[p])
		}
		fmt.Fprintf(&text, "%s top1_err", proxyModels[m])
		for p := range paths {
			fmt.Fprintf(&text, " %s=%.4f", pathName(p), metrics.Top1Error(args[p], labels))
		}
		fmt.Fprintf(&text, " mismatches NX1-NX2=%d NX1-AGX1=%d NX2-AGX1=%d\n",
			metrics.Mismatches(args[0], args[1]), metrics.Mismatches(args[0], args[2]), metrics.Mismatches(args[1], args[2]))
	}
	sum := sha256.Sum256([]byte(text.String()))
	return hex.EncodeToString(sum[:8]), text.String()
}

func pathName(p int) string {
	if p < len(offlineBuilds) {
		return offlineBuilds[p].name
	}
	return "FP32"
}

// offlinePass is a pass plus host wall split by path.
type offlinePass struct {
	pass
	engineNs, refNs       int64
	engineCalls, refCalls int64
	simSec                []float64 // sim: expected latency of each engine call
	errs                  []string
}

// drive runs one caller for d: request k evaluates one seeded image on
// model k mod 5 through every build and the FP32 reference, checking
// every output bit for bit. With timers ([model][build]) the engines
// run through InferFaulty under the layer timers.
func (s *offlineSystem) drive(images []labeled, want offlineWant, seed int64, phase string, timers [][]*layerTimer, d time.Duration) offlinePass {
	var p offlinePass
	pick := fixrand.NewKeyed(fmt.Sprintf("perfbench/%d/offline/%s", seed, phase))
	fail := func(msg string) {
		if len(p.errs) < 3 {
			p.errs = append(p.errs, msg)
		}
	}
	end := time.Now().Add(d)
	for k := 0; time.Now().Before(end); k++ {
		m := k % len(proxyModels)
		i := pick.Intn(len(images))
		x := images[i].image
		p.attempted++
		start := time.Now()
		good := true
		for b, e := range s.engines[m] {
			t0 := time.Now()
			var outs []*tensor.Tensor
			var err error
			if timers != nil {
				outs, err = e.InferFaulty(x, timers[m][b])
			} else {
				outs, err = e.Infer(x)
			}
			p.engineNs += int64(time.Since(t0))
			if timers != nil {
				timers[m][b].done()
				p.simSec = append(p.simSec, timers[m][b].simSec)
			}
			p.engineCalls++
			if err != nil || !sameBits(outs[0], want[m][b][i]) {
				good = false
				fail(fmt.Sprintf("%s %s image %d: output differs from InferBatch (err %v)", proxyModels[m], offlineBuilds[b].name, i, err))
			}
		}
		t0 := time.Now()
		ref, err := core.UnoptimizedInfer(s.refs[m], x)
		p.refNs += int64(time.Since(t0))
		p.refCalls++
		if err != nil || !sameBits(ref[0], want[m][len(offlineBuilds)][i]) {
			good = false
			fail(fmt.Sprintf("%s FP32 image %d: output differs from the reference (err %v)", proxyModels[m], i, err))
		}
		if !good {
			p.failed++
			continue
		}
		p.ok++
		p.images += int64(numPaths())
		now := time.Now()
		p.latSec = append(p.latSec, now.Sub(start).Seconds())
		p.doneAt = append(p.doneAt, now)
	}
	return p
}

// allocProbe counts heap allocations per Engine.Infer call over one
// sweep of the image set on every engine, after one warm call each.
func (s *offlineSystem) allocProbe(images []labeled) (allocs, bytes float64, err error) {
	var m0, m1 runtime.MemStats
	var calls float64
	var mallocs, total uint64
	for _, row := range s.engines {
		for _, e := range row {
			if _, err := e.Infer(images[0].image); err != nil {
				return 0, 0, err
			}
			runtime.ReadMemStats(&m0)
			for _, l := range images {
				if _, err := e.Infer(l.image); err != nil {
					return 0, 0, err
				}
			}
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			total += m1.TotalAlloc - m0.TotalAlloc
			calls += float64(len(images))
		}
	}
	return float64(mallocs) / calls, float64(total) / calls, nil
}

func runOffline(o options) (result, error) {
	setupS, sys, err := timeSetUps(setUpOffline)
	if err != nil {
		return result{}, err
	}
	images := seededImages(o.seed, offlineImages)
	want, err := sys.expected(images)
	if err != nil {
		return result{}, err
	}
	sum, table := digest(images, want)
	fmt.Print(table)
	correct := true
	switch {
	case o.seed != defaultSeed:
		fmt.Printf("accuracy digest %s (seed %d has no recorded digest)\n", sum, o.seed)
	case sum == recordedDigest:
		fmt.Printf("accuracy digest %s matches the recorded digest\n", sum)
	default:
		fmt.Printf("FAIL accuracy digest %s, recorded %s\n", sum, recordedDigest)
		correct = false
	}

	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		d /= 2
	}
	up := sys.timedPass(images, want, o.seed, "untraced", nil, nil, d)
	res := result{Correct: correct && up.failed == 0, Attempted: up.attempted, Failed: up.failed, Metrics: up.endToEnd(setupS)}
	if !o.trace {
		return res, nil
	}

	var lm layerMetrics
	_, lm.latencyP99MS = up.latencyMS()
	lm.inferUs = float64(up.engineNs) / float64(up.engineCalls) / 1e3
	lm.refUs = float64(up.refNs) / float64(up.refCalls) / 1e3
	if lm.allocs, lm.allocBytes, err = sys.allocProbe(images); err != nil {
		return result{}, err
	}
	if lm.buildMs, err = buildProbe(proxyModels, gpusim.XavierNX(), 3); err != nil {
		return result{}, err
	}
	tr := &tracer{}
	timers := make([][]*layerTimer, len(proxyModels))
	for m, row := range sys.engines {
		for b, e := range row {
			timers[m] = append(timers[m], tr.timer(proxyModels[m], e, sys.devs[b]))
		}
	}
	tp := sys.timedPass(images, want, o.seed, "traced", timers, tr, d)
	overhead(up.pass, tp.pass, sys.engines[0][0], sys.devs[0], lm.inferUs)
	layers := tr.summary()
	layers.print()
	lm.kindNs = layers.kindNs
	wallNs := float64(tp.engineNs) / float64(tp.engineCalls)
	residual := wallNs - layers.totalNs
	frac := residual / wallNs
	ok := frac > -accountingTolerance && frac < accountingTolerance
	fmt.Printf("accounting: Engine.InferFaulty wall %.1f ns = layers %.1f ns + residual %.1f ns (%+.2f%%) ok=%t (host, per engine-image)\n",
		wallNs, layers.totalNs, residual, 100*frac, ok)
	fmt.Printf("sim.service_ms_p50=%.4f (sim, expected engine latency per call, n=%d)\n",
		metrics.Percentile(tp.simSec, 50)*1e3, len(tp.simSec))
	lm.print(fmt.Sprintf("Engine.Infer and core.UnoptimizedInfer in the untraced pass (n=%d and %d calls); "+
		"core.Build of every proxy; netserve and serve are bypassed and read 0", up.engineCalls, up.refCalls))
	res.Correct = res.Correct && tp.failed == 0 && ok
	res.Attempted += tp.attempted
	res.Failed += tp.failed
	res.Metrics = lm.metrics()
	return res, nil
}

// timedPass warms the loop up, drops what tr recorded during the
// warm-up, then measures one pass of length d and prints it.
func (s *offlineSystem) timedPass(images []labeled, want offlineWant, seed int64, label string, timers [][]*layerTimer, tr *tracer, d time.Duration) offlinePass {
	s.drive(images, want, seed, "warm", timers, warmUp)
	tr.reset()
	var p offlinePass
	p.pass = measure(d, func(d time.Duration) pass {
		p = s.drive(images, want, seed, label, timers, d)
		return p.pass
	})
	fmt.Printf("-- %s pass\n", label)
	p.pass.print("offline-accuracy")
	for _, e := range p.errs {
		fmt.Printf("FAIL %s\n", e)
	}
	return p
}
