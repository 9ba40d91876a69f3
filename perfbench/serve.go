package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"edgeinfer/internal/core"
	"edgeinfer/internal/dataset"
	"edgeinfer/internal/fixrand"
	"edgeinfer/internal/gpusim"
	"edgeinfer/internal/graph"
	"edgeinfer/internal/metrics"
	"edgeinfer/internal/netserve"
	"edgeinfer/internal/rtctx"
	"edgeinfer/internal/serve"
	"edgeinfer/internal/tensor"
)

const (
	serveModel = "resnet18"
	// rawInputs is how many distinct seeded images serve-raw cycles
	// through; serve-quorum indexes the server's own benign set.
	rawInputs = 256
	// quorumReplicas is the serve-quorum fleet size.
	quorumReplicas = 3
)

// serveSystem is one running server and what the benchmark needs to
// check its answers.
type serveSystem struct {
	name string
	srv  *netserve.Server
	url  string
	// be is the unwrapped backend; timedBackend wraps it when traced.
	be   netserve.Backend
	ex   *serve.Executor // serve-raw
	pool *serve.Pool     // serve-quorum
	// voters are the engines the expected answers are computed on: the
	// executor's engine, or every fleet replica.
	voters   []*core.Engine
	fallback *graph.Graph
	shape    [4]int
	dev      *gpusim.Device
}

// setUpServe builds the registry, the engines, the executor or fleet
// and the server, and starts listening. With a tracer, the executor or
// every replica runs under a layerTimer and the backend is wrapped in a
// timedBackend.
func setUpServe(name string, conns int, tr *tracer) (*serveSystem, error) {
	spec := gpusim.XavierNX()
	dev := gpusim.NewDevice(spec, gpusim.PaperLatencyClock(spec))
	reg := serve.NewRegistry(spec, nil)
	s := &serveSystem{name: name, dev: dev}
	fallback, err := reg.Fallback(serveModel)
	if err != nil {
		return nil, err
	}
	s.fallback = fallback
	switch name {
	case "serve-raw":
		eng, err := reg.ProxyEngine(serveModel)
		if err != nil {
			return nil, err
		}
		cfg := serve.Config{Seed: "perfbench/" + serveModel, Device: dev}
		if tr != nil {
			cfg.Injector = tr.timer(serveModel, eng, dev)
		}
		ex, err := reg.Executor(serveModel, cfg)
		if err != nil {
			return nil, err
		}
		s.ex, s.voters, s.shape = ex, []*core.Engine{eng}, eng.Graph.InputShape
		s.be = netserve.NewExecutorBackend(ex, s.shape)
	case "serve-quorum":
		pcfg := serve.PoolConfig{Model: serveModel, Replicas: quorumReplicas, Quorum: true, Device: dev}
		if tr != nil {
			pcfg.ReplicaInjector = func(_ int, e *core.Engine) core.FaultInjector {
				return tr.timer(serveModel, e, dev)
			}
		}
		pool, err := serve.NewPool(reg, pcfg)
		if err != nil {
			return nil, err
		}
		s.pool, s.voters = pool, pool.Engines()
		s.be = netserve.NewPoolBackend(pool)
		s.shape = s.be.InputShape()
	default:
		return nil, fmt.Errorf("not a serve workload: %q", name)
	}
	be := s.be
	if tr != nil {
		be = &timedBackend{Backend: be, tr: tr}
	}
	// The batch closes when every connection has a request in it, not on
	// the window timer. The deadline only needs to outlast a stall of the
	// host: the closed loop measures capacity, not deadline misses.
	srv, err := netserve.New(netserve.Config{
		Models:          []netserve.ModelConfig{{Name: serveModel, Backend: be}},
		MaxBatch:        conns,
		DefaultDeadline: 5 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		s.srv = srv
		s.close()
		return nil, err
	}
	s.srv, s.url = srv, "http://"+addr+"/v1/models/"+serveModel+"/infer"
	return s, nil
}

// close drains the server: every batcher goroutine and the listener
// have stopped when it returns.
func (s *serveSystem) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.srv.Drain(ctx); err != nil {
		fmt.Printf("# drain: %v\n", err)
	}
}

// serveInputs are the request bodies of a workload and the tensors the
// server decodes them to.
type serveInputs struct {
	bodies [][]byte
	images []*tensor.Tensor
}

// makeServeInputs encodes serve-raw's seeded images as raw NCHW payloads
// (~32 KB of JSON each), or serve-quorum's index-form bodies over the
// server's deterministic benign set.
func makeServeInputs(name string, seed int64, shape [4]int) (serveInputs, error) {
	var in serveInputs
	if name == "serve-quorum" {
		for i, sm := range dataset.Benign(dataset.DefaultBenign(1)) {
			in.images = append(in.images, sm.Image)
			in.bodies = append(in.bodies, []byte(fmt.Sprintf(`{"input":%d}`, i)))
		}
		return in, nil
	}
	for _, l := range seededImages(seed, rawInputs) {
		body, err := json.Marshal(struct {
			Data  []float32 `json:"data"`
			Shape [4]int    `json:"shape"`
		}{l.image.Data, shape})
		if err != nil {
			return in, err
		}
		in.images = append(in.images, l.image)
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

// expected computes, outside the timed region, the argmax the server
// must reply for each input: Engine.InferBatch on the served engine, or
// for a quorum fleet the strict-majority argmax of its replicas, falling
// back to the FP32 reference when no majority exists — the fleet's own
// rule.
func (s *serveSystem) expected(images []*tensor.Tensor) ([]int, error) {
	votes := make([][]int, len(s.voters))
	for v, e := range s.voters {
		outs, err := e.InferBatch(images)
		if err != nil {
			return nil, fmt.Errorf("expected answers: %w", err)
		}
		votes[v] = make([]int, len(images))
		for i, o := range outs {
			votes[v][i] = argmax(o[0])
		}
	}
	want := make([]int, len(images))
	for i, img := range images {
		want[i] = -1
		for _, vote := range votes {
			n := 0
			for _, other := range votes {
				if other[i] == vote[i] {
					n++
				}
			}
			if 2*n > len(votes) {
				want[i] = vote[i]
				break
			}
		}
		if want[i] < 0 {
			outs, err := core.UnoptimizedInfer(s.fallback, img)
			if err != nil {
				return nil, fmt.Errorf("expected answers: FP32 reference: %w", err)
			}
			want[i] = argmax(outs[0])
		}
	}
	return want, nil
}

// reply is one correct 200 reply, as the client saw it.
type reply struct {
	latSec  float64 // host: client-observed latency
	queueMS float64 // host: the server's queue wait
	simSec  float64 // sim: the batch's service latency
	batch   int
}

// servePass is a pass plus the replies behind it and the first few
// wrong answers.
type servePass struct {
	pass
	replies []reply
	wrong   int64
	errs    []string
}

// drive runs a closed loop of conns keep-alive connections for d: each
// sends its next request only when the previous reply has arrived, its
// inputs drawn from a stream seeded by seed, phase and connection.
func (s *serveSystem) drive(in serveInputs, want []int, seed int64, phase string, conns int, d time.Duration) servePass {
	end := time.Now().Add(d)
	per := make([]servePass, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pick := fixrand.NewKeyed(fmt.Sprintf("perfbench/%d/%s/%s/conn%d", seed, s.name, phase, c))
			per[c] = s.client(in, want, pick, end)
		}()
	}
	wg.Wait()
	var sp servePass
	for _, p := range per {
		sp.attempted += p.attempted
		sp.failed += p.failed
		sp.ok += p.ok
		sp.wrong += p.wrong
		sp.latSec = append(sp.latSec, p.latSec...)
		sp.doneAt = append(sp.doneAt, p.doneAt...)
		sp.replies = append(sp.replies, p.replies...)
		sp.errs = append(sp.errs, p.errs...)
	}
	sp.images = sp.ok * int64(len(s.voters))
	return sp
}

func (s *serveSystem) client(in serveInputs, want []int, pick *fixrand.Source, end time.Time) servePass {
	transport := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	var p servePass
	fail := func(msg string) {
		p.failed++
		if len(p.errs) < 3 {
			p.errs = append(p.errs, msg)
		}
	}
	for time.Now().Before(end) {
		i := pick.Intn(len(in.bodies))
		p.attempted++
		start := time.Now()
		rep, err := post(hc, s.url, in.bodies[i])
		done := time.Now()
		lat := done.Sub(start).Seconds()
		switch {
		case err != nil:
			fail(err.Error())
		case rep.Argmax != want[i]:
			p.wrong++
			fail(fmt.Sprintf("input %d: argmax %d, want %d (tier %s)", i, rep.Argmax, want[i], rep.Tier))
		default:
			p.ok++
			p.latSec = append(p.latSec, lat)
			p.doneAt = append(p.doneAt, done)
			p.replies = append(p.replies, reply{latSec: lat, queueMS: rep.QueueMS, simSec: rep.LatencySec, batch: rep.BatchSize})
		}
	}
	return p
}

func post(hc *http.Client, url string, body []byte) (netserve.InferReply, error) {
	var rep netserve.InferReply
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return rep, err
	}
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("reply: %w", err)
	}
	return rep, nil
}

// counters are the program's own counters, as deltas over one pass.
type counters struct {
	net  netserve.ModelStats
	ex   serve.Stats
	pool serve.PoolStats
}

func (s *serveSystem) counters() counters {
	var c counters
	c.net = s.srv.Stats().Models[serveModel]
	if s.ex != nil {
		c.ex = s.ex.Stats()
	}
	if s.pool != nil {
		c.pool = s.pool.Stats()
	}
	return c
}

// printDelta prints the counters that moved between two snapshots.
func printDelta(a, b counters, isPool bool) {
	n := func(x, y uint64) uint64 { return y - x }
	fmt.Printf("netserve.shed=%d netserve.expired=%d netserve.errors=%d netserve.batches=%d (counts)\n",
		n(a.net.Shed, b.net.Shed), n(a.net.Expired, b.net.Expired), n(a.net.Errors, b.net.Errors), n(a.net.Batches, b.net.Batches))
	if isPool {
		fmt.Printf("serve.pool.no_majority=%d serve.pool.quarantines=%d serve.pool.fp32_served=%d (counts)\n",
			n(a.pool.NoMajority, b.pool.NoMajority), n(a.pool.Quarantines, b.pool.Quarantines), n(a.pool.FP32Served, b.pool.FP32Served))
		return
	}
	fmt.Printf("serve.retries=%d serve.tier_fp32=%d serve.breaker_trips=%d (counts)\n",
		n(a.ex.Retries, b.ex.Retries), n(a.ex.TierServed[serve.TierFP32], b.ex.TierServed[serve.TierFP32]), n(a.ex.BreakerTrips, b.ex.BreakerTrips))
}

// allocProbe counts heap allocations per image of Backend.ServeBatch,
// called directly with conns-image batches while the server is idle.
func (s *serveSystem) allocProbe(images []*tensor.Tensor, conns int) (allocs, bytes float64, err error) {
	const warm, batches = 4, 32
	xs := make([][]*tensor.Tensor, warm+batches)
	for k := range xs {
		for j := 0; j < conns; j++ {
			xs[k] = append(xs[k], images[(k*conns+j)%len(images)])
		}
	}
	run := func(k int) error {
		_, err := s.be.ServeBatch(rtctx.Background(), xs[k], 1<<20+k)
		return err
	}
	for k := 0; k < warm; k++ {
		if err := run(k); err != nil {
			return 0, 0, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for k := warm; k < warm+batches; k++ {
		if err := run(k); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	n := float64(batches * conns)
	return float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / n, nil
}

// buildProbe returns the median host wall of core.Build over n cold
// builds of each model, averaged over the models.
func buildProbe(models []string, spec gpusim.DeviceSpec, n int) (float64, error) {
	var sum float64
	for _, m := range models {
		walls := make([]float64, n)
		for i := range walls {
			g, err := proxyGraph(m)
			if err != nil {
				return 0, err
			}
			start := time.Now()
			if _, err := core.Build(g, core.DefaultConfig(spec, 1)); err != nil {
				return 0, err
			}
			walls[i] = time.Since(start).Seconds() * 1e3
		}
		sum += median(walls)
	}
	return sum / float64(len(models)), nil
}

func runServe(name string, o options) (result, error) {
	setupS, sys, err := timeSetUps(func() (*serveSystem, error) { return setUpServe(name, o.conns, nil) })
	if err != nil {
		return result{}, err
	}
	defer sys.close()
	in, err := makeServeInputs(name, o.seed, sys.shape)
	if err != nil {
		return result{}, err
	}
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		d /= 2
	}
	sp, err := sys.timedPass(in, o, "untraced", d, nil)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: sp.wrong == 0, Attempted: sp.attempted, Failed: sp.failed, Metrics: sp.endToEnd(setupS)}
	if !o.trace {
		return res, nil
	}

	var lm layerMetrics
	_, lm.latencyP99MS = sp.latencyMS()
	if lm.allocs, lm.allocBytes, err = sys.allocProbe(in.images, o.conns); err != nil {
		return result{}, err
	}
	if lm.refUs, err = refProbe(sys.fallback, in.images); err != nil {
		return result{}, err
	}
	if lm.buildMs, err = buildProbe([]string{serveModel}, gpusim.XavierNX(), 3); err != nil {
		return result{}, err
	}
	tr := &tracer{}
	tsys, err := setUpServe(name, o.conns, tr)
	if err != nil {
		return result{}, err
	}
	defer tsys.close()
	tp, err := tsys.timedPass(in, o, "traced", d, tr)
	if err != nil {
		return result{}, err
	}
	layers := tr.summary()
	lm.inferUs, lm.kindNs = layers.totalNs/1e3, layers.kindNs
	overhead(sp.pass, tp.pass, tsys.voters[0], tsys.dev, lm.inferUs)
	layers.print()
	ok := serveAccounting(tp, tr, layers, &lm)
	lm.print(fmt.Sprintf("Backend.ServeBatch per image served; FP32 reference and core.Build of %s", serveModel))
	res.Correct = res.Correct && tp.wrong == 0 && ok
	res.Attempted += tp.attempted
	res.Failed += tp.failed
	res.Metrics = lm.metrics()
	return res, nil
}

// timedPass computes the expected answers, warms the loop up, drops what
// tr recorded during the warm-up, then measures one pass of length d and
// prints it with the counters it moved.
func (s *serveSystem) timedPass(in serveInputs, o options, label string, d time.Duration, tr *tracer) (servePass, error) {
	want, err := s.expected(in.images)
	if err != nil {
		return servePass{}, err
	}
	s.drive(in, want, o.seed, "warm", o.conns, warmUp)
	tr.reset()
	before := s.counters()
	var sp servePass
	sp.pass = measure(d, func(d time.Duration) pass {
		sp = s.drive(in, want, o.seed, label, o.conns, d)
		return sp.pass
	})
	after := s.counters()
	fmt.Printf("-- %s pass\n", label)
	sp.pass.print(s.name)
	printDelta(before, after, s.pool != nil)
	for _, e := range sp.errs {
		fmt.Printf("FAIL %s\n", e)
	}
	return sp, nil
}

// refProbe returns the host wall of core.UnoptimizedInfer, the FP32
// reference path, per image over the workload's inputs.
func refProbe(g *graph.Graph, images []*tensor.Tensor) (float64, error) {
	const n = 64
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := core.UnoptimizedInfer(g, images[i%len(images)]); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds() * 1e6 / n, nil
}

// serveAccounting splits mean client latency into netserve's own time,
// queue wait and ServeBatch wall, fills the serving figures of lm, and
// checks the split. Each reply is matched to its batch by the batch's
// simulated latency, which the reply echoes; a reply's netserve time is
// its client latency minus its queue wait minus its batch's wall. The
// checks: every reply's netserve time is non-negative (the spans nest);
// the sum of the means reconstructs mean client latency, with the
// ServeBatch term taken from the wrapper's own batch-weighted record, so
// the residual is zero only when every reply found its batch and every
// batch was seen; and the traced layers fit inside the ServeBatch walls.
func serveAccounting(tp servePass, tr *tracer, layers layerSummary, lm *layerMetrics) bool {
	tr.mu.Lock()
	batches := append([]batchSpan(nil), tr.batches...)
	tr.mu.Unlock()
	bySim := map[float64]int{}
	wallBySim := map[float64]float64{}
	walls := make([]float64, len(batches))
	var wallSum, weighted float64
	var imgs int
	for i, b := range batches {
		w := b.wall.Seconds() * 1e3
		bySim[b.simSec]++
		wallBySim[b.simSec] = w
		walls[i] = w
		wallSum += w
		weighted += w * float64(b.size)
		imgs += b.size
	}
	var selfs, lats, queues, sims, sizes []float64
	for _, r := range tp.replies {
		lat := r.latSec * 1e3
		lats = append(lats, lat)
		queues = append(queues, r.queueMS)
		sims = append(sims, r.simSec*1e3)
		sizes = append(sizes, float64(r.batch))
		if bySim[r.simSec] == 1 {
			selfs = append(selfs, lat-r.queueMS-wallBySim[r.simSec])
		}
	}
	if len(selfs) == 0 || imgs == 0 {
		fmt.Println("FAIL accounting: no traced reply matched a batch")
		return false
	}
	latMS, queueMS, selfMS := mean(lats), mean(queues), mean(selfs)
	batchMS := weighted / float64(imgs)
	layerMS := layers.totalNs * float64(layers.images) / 1e6
	lm.batchMean = mean(sizes)
	lm.netSelfFrac = selfMS / latMS
	lm.netQueueFrac = queueMS / latMS
	lm.serveSelfFrac = (wallSum - layerMS) / wallSum
	sort.Float64s(selfs)
	qs := metrics.Percentiles(queues, 50, 99)
	fmt.Printf("netserve.self_ms=%.4f (host, mean over %d of %d replies matched to a batch; min %.4f)\n",
		selfMS, len(selfs), len(lats), selfs[0])
	fmt.Printf("netserve.queue_wait_ms_p50=%.4f netserve.queue_wait_ms_p99=%.4f (host, n=%d)\n", qs[0], qs[1], len(queues))
	fmt.Printf("netserve.batch_size_mean=%.3f (count)\n", lm.batchMean)
	fmt.Printf("serve.busy_frac=%.4f serve.batch_ms_p50=%.4f (host, n=%d batches)\n",
		wallSum/1e3/tp.wall.Seconds(), median(walls), len(batches))
	fmt.Printf("serve.self_ms_per_batch=%.4f (host, ServeBatch wall minus traced layers)\n", (wallSum-layerMS)/float64(len(batches)))
	fmt.Printf("sim.service_ms_p50=%.4f (sim, n=%d)\n", metrics.Percentile(sims, 50), len(sims))

	residual := latMS - (selfMS + queueMS + batchMS)
	frac := residual / latMS
	nested := selfs[0] >= 0 && layerMS <= wallSum
	ok := nested && frac > -accountingTolerance && frac < accountingTolerance
	fmt.Printf("accounting: client latency %.4f ms = netserve.self %.4f + queue %.4f + ServeBatch %.4f, residual %.4f ms (%+.2f%%); spans nest: %t; ok=%t (host)\n",
		latMS, selfMS, queueMS, batchMS, residual, 100*frac, nested, ok)
	return ok
}

// accountingTolerance is the largest residual, as a share of the whole,
// an accounting self-check accepts.
const accountingTolerance = 0.05

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
