// Batched serving: the one serving path of Executor and Pool. Each tier
// attempt is one timed pass over the engine plan plus one batched
// numeric inference (Engine.InferBatchCtx), so the replica fleet
// amortizes launch, retry and voting overhead across the batch. A
// single-image request (DoCtx) is a batch of one. Per-image numerics are
// untouched: on a pristine executor or fleet, the batch outputs are
// bit-identical to serving each image on its own.
package serve

import (
	"errors"
	"fmt"
	"sort"

	"edgeinfer/internal/core"
	"edgeinfer/internal/rtctx"
	"edgeinfer/internal/tensor"
)

// BatchResult is one served batch request.
type BatchResult struct {
	// Outputs[i] are the numeric outputs of input i, in input order.
	Outputs [][]*tensor.Tensor
	// LatencySec is the batch's end-to-end simulated latency (attempts,
	// stalls, backoff), shared by every image of the batch.
	LatencySec float64
	// Tier that finally served the batch.
	Tier Tier
	// Retries issued across all tiers.
	Retries int
	// Degraded reports the batch was not served by the tuned engine.
	Degraded bool
	// DeadlineMiss reports the accumulated latency exceeded the deadline.
	DeadlineMiss bool
}

// DoBatchCtx serves one batched numeric request through the
// degradation chain. A fault anywhere in the batch fails the whole
// attempt (the batch rides one launch sequence). On a pristine executor,
// Outputs[i] is bit-identical to DoCtx(nil, xs[i]). It is the coalescing
// front-end's serving route, where the batch context carries the
// tightest member deadline. The context's budget clamps through the
// configured DeadlineSec; an aborting context additionally arms the
// layer-boundary guard (core.InferBatchCtx), so a batch whose burned
// latency plus remaining expected schedule proves it hopeless stops
// mid-graph with a wrapped ErrDeadlineExceeded instead of finishing a
// late answer or paying the FP32 tier. A nil context means no budget.
func (ex *Executor) DoBatchCtx(ctx *rtctx.Request, xs []*tensor.Tensor, runIndex int) (*BatchResult, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("serve: executor needs at least one input")
	}
	for i, x := range xs {
		if x == nil {
			return nil, fmt.Errorf("serve: executor input %d is nil", i)
		}
	}
	ex.count(func(s *Stats) { s.Requests++ })
	deadlineSec, abort := ex.effectiveDeadline(ctx.Budget()), ctx.Aborts()
	res := &Result{Tier: TierFP32, deadlineSec: deadlineSec}

	// The normalized context the accelerated tiers dispatch through:
	// armed only on the abort paths, so non-aborting callers keep their
	// exact injector draw order and answer-late contract.
	var cctx *rtctx.Request
	if abort && deadlineSec > 0 {
		cctx = rtctx.WithBudget(deadlineSec)
	}

	tryTuned := ex.admitTuned()
	alloc, _ := ex.cfg.Injector.(Allocator)
	exhausted := false

	for tier := TierTuned; tier < TierFP32; tier++ {
		eng := ex.cfg.Engine
		if tier == TierLowBatch {
			eng = ex.cfg.LowBatch
		}
		if eng == nil || (tier == TierTuned && !tryTuned) {
			continue
		}
		// A timing-only tier cannot serve a numeric request
		// (configuration mismatch, not a device fault).
		if !eng.Numeric {
			continue
		}
		if ex.deadlineExceeded(res) {
			break
		}
		// Memory-pressure admission: reserve the engine's per-thread
		// footprint for the attempt window.
		if alloc != nil {
			if err := alloc.Alloc(eng.PerThreadMemBytes()); err != nil {
				ex.count(func(s *Stats) { s.AllocRejects++ })
				if tier == TierTuned {
					ex.recordPrimary(false)
				}
				continue // engine needs memory it cannot get: degrade
			}
		}
		var outs [][]*tensor.Tensor
		var ok bool
		outs, ok, exhausted = ex.tryTierBatch(eng, cctx, xs, runIndex, res)
		if alloc != nil {
			alloc.Free(eng.PerThreadMemBytes())
		}
		if exhausted {
			// A layer-boundary check proved the budget unmeetable: not an
			// engine fault, so the breaker and tier-failure counters stay
			// untouched, and no cheaper tier is tried — it runs the same
			// schedule against the same spent budget.
			break
		}
		if tier == TierTuned {
			ex.recordPrimary(ok)
		}
		if ok {
			res.Tier = tier
			res.Degraded = tier != TierTuned
			ex.count(func(s *Stats) { s.TierServed[tier]++ })
			ex.setLastTier(tier)
			return batchResult(res, outs), nil
		}
		ex.count(func(s *Stats) { s.TierFailures[tier]++ })
	}

	if exhausted {
		if !res.DeadlineMiss {
			res.DeadlineMiss = true
			ex.count(func(s *Stats) { s.DeadlineMisses++ })
		}
		ex.count(func(s *Stats) { s.DeadlineAborts++ })
		return nil, fmt.Errorf("serve: batch abandoned mid-graph at %.3gs of a %.3gs budget: %w",
			res.LatencySec, res.deadlineSec, ErrDeadlineExceeded)
	}

	// Terminal tier: the FP32 host path has no batched kernels — every
	// image pays the full reference pass.
	if err := ex.abortLate(res, abort); err != nil {
		return nil, err
	}
	res.LatencySec += float64(len(xs)) * core.UnoptimizedRun(ex.cfg.Fallback, ex.cfg.Device)
	ex.deadlineExceeded(res)
	outs := make([][]*tensor.Tensor, len(xs))
	for i, x := range xs {
		o, err := core.UnoptimizedInfer(ex.cfg.Fallback, x)
		if err != nil {
			return nil, fmt.Errorf("serve: FP32 fallback failed: %w", err)
		}
		outs[i] = o
	}
	res.Tier = TierFP32
	res.Degraded = true
	ex.count(func(s *Stats) { s.TierServed[TierFP32]++ })
	ex.setLastTier(TierFP32)
	return batchResult(res, outs), nil
}

func batchResult(res *Result, outs [][]*tensor.Tensor) *BatchResult {
	return &BatchResult{
		Outputs:      outs,
		LatencySec:   res.LatencySec,
		Tier:         res.Tier,
		Retries:      res.Retries,
		Degraded:     res.Degraded,
		DeadlineMiss: res.DeadlineMiss,
	}
}

// tryTierBatch makes up to MaxRetries+1 attempts on one engine,
// accumulating latency (including failed attempts and backoff) into
// res; each attempt is one timed pass plus one batched inference, run
// under the normalized request context. The third result reports a
// mid-graph budget abort: the layer-boundary guard proved the budget
// unmeetable, so retrying (or degrading) cannot help. The aborted
// attempt still books its timed-pass latency — the abort saves the
// remaining host-side numeric work, the other tiers and the FP32
// reference pass, not the already-priced launch schedule.
func (ex *Executor) tryTierBatch(eng *core.Engine, ctx *rtctx.Request, xs []*tensor.Tensor, runIndex int, res *Result) (outs [][]*tensor.Tensor, ok, exhausted bool) {
	cfg := core.RunConfig{
		Device:        ex.cfg.Device,
		IncludeMemcpy: ex.cfg.IncludeMemcpy,
		RunIndex:      runIndex,
	}
	for attempt := 0; attempt <= ex.cfg.MaxRetries; attempt++ {
		if attempt > 0 && !ex.retryWait(attempt, res) {
			return nil, false, false
		}
		burned := res.LatencySec
		run, err := eng.RunFaulty(cfg, ex.cfg.Injector)
		res.LatencySec += run.LatencySec
		if err == nil {
			outs, err = eng.InferBatchCtx(ctx, xs, ex.cfg.Injector, ex.cfg.Device, burned)
			if errors.Is(err, core.ErrBudgetExhausted) {
				return nil, false, true
			}
		}
		if err == nil {
			ex.deadlineExceeded(res)
			return outs, true, false
		}
	}
	return nil, false, false
}

// PoolBatchResult is one batched fleet request.
type PoolBatchResult struct {
	// Results[i] is the per-image outcome — the same verdicts Do would
	// produce for xs[i] given identical replica answers.
	Results []*PoolResult
	// LatencySec is the batch release time: the latest per-image release.
	LatencySec float64
	// DeadlineMiss reports the batch release time overran the request
	// context's budget: the fleet's own verdict, computed centrally in
	// DoBatchCtx so every backend reports misses identically.
	DeadlineMiss bool
}

// DoBatchCtx serves one batch through the fleet. Each replica runs once
// and answers with one batched inference; under quorum, majority voting
// then happens per image over the batched outputs. With no injected
// faults the per-image winners and outputs are bit-identical to serving
// each image with DoCtx. The supervisor folds one latency observation
// per replica (one run happened) and one divergence vote per image.
//
// It is the fleet's single budget-carrying path and the serving route
// the network front-end's pool backend threads its batch budget through
// (the deadlineflow analyzer enforces that choice). A nil context means
// no budget.
// Under round-robin dispatch the context arms core.InferBatchCtx's
// layer-boundary guard on every replica attempt, so a hopeless batch
// aborts mid-graph; when the latency burned by failed replica attempts
// already exceeds the budget, the batch is abandoned with a wrapped
// ErrDeadlineExceeded instead of paying the per-image FP32 reference
// passes nobody is waiting for. The batch's DeadlineMiss verdict is
// computed here — once, against the context budget — so executor- and
// pool-backed front-ends report misses identically.
func (p *Pool) DoBatchCtx(ctx *rtctx.Request, xs []*tensor.Tensor, runIndex int) (*PoolBatchResult, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("serve: pool needs at least one input")
	}
	for i, x := range xs {
		if x == nil {
			return nil, fmt.Errorf("serve: pool input %d is nil", i)
		}
	}
	<-p.turn
	defer func() { p.turn <- struct{}{} }()
	var req uint64
	p.locked(func() {
		p.stats.Requests++
		req = p.stats.Requests
	})
	p.advanceRebuilds(req)
	var br *PoolBatchResult
	var err error
	if p.cfg.Quorum {
		br, err = p.serveQuorumBatch(req, xs, runIndex, ctx)
	} else {
		br, err = p.serveRRBatch(req, xs, runIndex, ctx)
	}
	if err != nil {
		return nil, err
	}
	if b := ctx.Budget(); b > 0 && br.LatencySec > b {
		br.DeadlineMiss = true
		p.locked(func() { p.stats.DeadlineMisses++ })
	}
	return br, nil
}

// batchBudgetExpired decides the pre-FP32 abort: a deadline-carrying
// batch whose burned latency has already consumed the budget is
// abandoned rather than degraded.
func (p *Pool) batchBudgetExpired(burnedSec float64, ctx *rtctx.Request) error {
	if !ctx.Aborts() || burnedSec < ctx.BudgetSec {
		return nil
	}
	p.locked(func() { p.stats.DeadlineAborts++ })
	return fmt.Errorf("serve: pool batch abandoned at %.3gs of a %.3gs budget: %w",
		burnedSec, ctx.BudgetSec, ErrDeadlineExceeded)
}

// serveRRBatch dispatches the whole batch to the next active replica in
// rotation, failing over to each remaining active replica once (their
// burned latency accumulates) and finally to the FP32 tier. The request
// context gates the terminal
// FP32 tier (an already-blown budget abandons the batch) and arms the
// layer-boundary guard inside each replica's batched inference, so a
// hopeless batch aborts mid-graph without trying further replicas —
// every replica runs the same schedule against the same spent budget.
func (p *Pool) serveRRBatch(req uint64, xs []*tensor.Tensor, runIndex int, ctx *rtctx.Request) (*PoolBatchResult, error) {
	active := p.sup.active()
	if len(active) == 0 {
		return p.serveFP32Batch(xs, 0)
	}
	var start int
	p.locked(func() {
		start = p.rr
		p.rr++
	})
	var total float64
	for i := 0; i < len(active); i++ {
		r := active[(start+i)%len(active)]
		if !r.activeState() {
			continue
		}
		burned := total
		run, runErr := r.eng.RunFaulty(p.runCfg(runIndex), r.inj)
		total += run.LatencySec
		var outs [][]*tensor.Tensor
		var inferErr error
		if runErr == nil {
			outs, inferErr = r.eng.InferBatchCtx(ctx, xs, r.inj, p.cfg.Device, burned)
			if errors.Is(inferErr, core.ErrBudgetExhausted) {
				// The replica behaved — the budget ran out. Fold its
				// latency observation without an error mark, then abandon.
				p.locked(func() {
					p.countObservation(p.sup.observe(req, r, run.LatencySec, false))
					p.stats.DeadlineAborts++
					p.stats.DeadlineMisses++
				})
				return nil, fmt.Errorf("serve: pool batch abandoned mid-graph at %.3gs of a %.3gs budget: %w",
					total, ctx.BudgetSec, ErrDeadlineExceeded)
			}
		}
		errored := runErr != nil || inferErr != nil
		served := false
		p.locked(func() {
			p.countObservation(p.sup.observe(req, r, run.LatencySec, errored))
			if errored {
				p.stats.ReplicaFails++
				return
			}
			p.stats.RoundRobin++
			served = true
		})
		if served {
			br := &PoolBatchResult{LatencySec: total}
			for _, o := range outs {
				br.Results = append(br.Results, &PoolResult{
					Outputs:    o,
					LatencySec: total,
					Replica:    r.slot,
					BuildID:    r.eng.BuildID,
				})
			}
			return br, nil
		}
	}
	if err := p.batchBudgetExpired(total, ctx); err != nil {
		return nil, err
	}
	return p.serveFP32Batch(xs, total)
}

// vote is one replica's answer for one image of a quorum request.
type vote struct {
	r    *replica
	lat  float64
	outs []*tensor.Tensor
	arg  int
}

// bvote is one replica's answer to a batched quorum request.
type bvote struct {
	r       *replica
	lat     float64
	outs    [][]*tensor.Tensor
	errored bool
}

// serveQuorumBatch runs every active replica once over the batch, then
// votes image by image on the argmax of the first output and serves the
// lowest-slot member of the strict majority. An image's latency is the
// majority-confirmation time: the second-smallest latency among the
// majority (the moment a second replica corroborates the answer). With
// no strict majority the FP32 reference serves the image, after the
// slowest voter has answered. The request
// context gates the whole-fleet-errored FP32 fallback; the per-image
// no-majority fallback still runs (the majority images already paid for
// their answers, abandoning the stragglers would discard served work).
// The layer-boundary guard is deliberately NOT armed inside the voters'
// inferences: majority voting needs every replica's complete answer, so
// the budget gates dispatch and the terminal tier instead of truncating
// a ballot mid-graph.
func (p *Pool) serveQuorumBatch(req uint64, xs []*tensor.Tensor, runIndex int, ctx *rtctx.Request) (*PoolBatchResult, error) {
	active := p.sup.active()
	if len(active) == 0 {
		return p.serveFP32Batch(xs, 0)
	}
	votes := make([]bvote, 0, len(active))
	voterCount := 0
	var maxLat, burned float64
	for _, r := range active {
		run, runErr := r.eng.RunFaulty(p.runCfg(runIndex), r.inj)
		v := bvote{r: r, lat: run.LatencySec, errored: runErr != nil}
		if !v.errored {
			outs, err := r.eng.InferBatchFaulty(xs, r.inj)
			if err != nil || len(outs) != len(xs) {
				v.errored = true
			} else {
				v.outs = outs
			}
		}
		if v.errored {
			p.locked(func() { p.stats.ReplicaFails++ })
			burned += v.lat
		} else {
			voterCount++
			if v.lat > maxLat {
				maxLat = v.lat
			}
		}
		votes = append(votes, v)
	}
	if voterCount == 0 {
		// Every replica errored: the batch is headed for the FP32 tier
		// with nothing but burned hedge latency to show for it.
		if err := p.batchBudgetExpired(burned, ctx); err != nil {
			p.locked(func() {
				for i := range votes {
					v := &votes[i]
					p.countObservation(p.sup.observe(req, v.r, v.lat, v.errored))
				}
			})
			return nil, err
		}
	}

	br := &PoolBatchResult{Results: make([]*PoolResult, len(xs))}
	for img, x := range xs {
		voters := make([]vote, 0, len(votes))
		for _, v := range votes {
			if v.errored {
				continue
			}
			o := v.outs[img]
			arg := -1
			if len(o) > 0 {
				arg = argmax(o[0])
			}
			voters = append(voters, vote{r: v.r, lat: v.lat, outs: o, arg: arg})
		}

		// Strict-majority argmax; at most one can hold it.
		majArg, majority := -1, []vote(nil)
		for _, v := range voters {
			n := 0
			for _, w := range voters {
				if w.arg == v.arg {
					n++
				}
			}
			if 2*n > len(voters) {
				majArg = v.arg
				for _, w := range voters {
					if w.arg == majArg {
						majority = append(majority, w)
					}
				}
				break
			}
		}

		// Divergence signal, per image in slot order (each image of the
		// batch is one quorum vote's worth of evidence).
		var refArg = -1
		if majArg < 0 && len(voters) > 0 {
			outs, err := core.UnoptimizedInfer(p.fallback, x)
			if err == nil && len(outs) > 0 {
				refArg = argmax(outs[0])
			}
		}
		p.locked(func() {
			for _, v := range voters {
				switch {
				case majArg >= 0:
					p.sup.noteDivergence(v.r, v.arg != majArg)
				case refArg >= 0:
					p.sup.noteDivergence(v.r, v.arg != refArg)
				}
			}
		})

		if len(majority) == 0 {
			p.locked(func() { p.stats.NoMajority++ })
			res, err := p.serveFP32(x, maxLat)
			if err != nil {
				return nil, err
			}
			res.Voters = len(voters)
			br.Results[img] = res
		} else {
			winner := majority[0]
			lats := make([]float64, len(majority))
			for i, v := range majority {
				lats[i] = v.lat
			}
			sort.Float64s(lats)
			release := lats[0]
			if len(lats) > 1 {
				release = lats[1]
			}
			p.locked(func() { p.stats.QuorumServed++ })
			br.Results[img] = &PoolResult{
				Outputs:    winner.outs,
				LatencySec: release,
				Replica:    winner.r.slot,
				BuildID:    winner.r.eng.BuildID,
				Voters:     len(voters),
				Majority:   len(majority),
			}
		}
		if br.Results[img].LatencySec > br.LatencySec {
			br.LatencySec = br.Results[img].LatencySec
		}
	}

	// One latency observation per replica: the batch was one run each.
	p.locked(func() {
		for i := range votes {
			v := &votes[i]
			p.countObservation(p.sup.observe(req, v.r, v.lat, v.errored))
		}
	})
	return br, nil
}

// serveFP32Batch serves every image of the batch from the FP32 tier.
func (p *Pool) serveFP32Batch(xs []*tensor.Tensor, baseLat float64) (*PoolBatchResult, error) {
	br := &PoolBatchResult{}
	for _, x := range xs {
		res, err := p.serveFP32(x, baseLat)
		if err != nil {
			return nil, err
		}
		br.Results = append(br.Results, res)
		if res.LatencySec > br.LatencySec {
			br.LatencySec = res.LatencySec
		}
	}
	return br, nil
}
