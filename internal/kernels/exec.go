package kernels

import (
	"fmt"
	"sync"

	"edgeinfer/internal/tensor"
)

// Numeric execution of conv/FC variants. Each variant accumulates in a
// different order and rounds partial sums to its precision at its own
// tile boundaries, exactly as real kernels with different tile shapes and
// reduction splits do. Two engines that picked different variants for the
// same layer therefore produce (slightly) different outputs on the same
// input — the mechanism behind the paper's Tables V and VI.
//
// Execution is parallel and allocation-free in the steady state: the
// output space is partitioned into contiguous row/unit ranges across the
// shared worker pool (pool.go), workers write disjoint output regions,
// and every output element's reduction runs in exactly the serial order —
// tile partials in ascending channel order through dotTile/reduceEdge,
// folded by Variant.combine — so outputs are bit-identical to serial
// execution for every variant, worker count and chunk placement.

// roundTo rounds a partial sum to the variant's compute precision.
func (v Variant) roundTo(x float32) float32 {
	if v.Precision == tensor.FP16 || v.Precision == tensor.INT8 {
		// INT8 kernels accumulate in FP16-equivalent precision here; the
		// weight quantization itself is applied by the builder.
		return tensor.RoundFP16(x)
	}
	return x
}

// tileChannels converts the reduction tile (in GEMM-K units) to input
// channels for a kxk convolution.
func (v Variant) tileChannels(kernel int) int {
	tc := v.TileK / (kernel * kernel)
	if tc < 1 {
		tc = 1
	}
	return tc
}

// chunkMACs sizes a parallel work chunk: one chunk is roughly this many
// multiply-accumulates, so small layers run inline (a single chunk) and
// large layers split finely enough to balance across workers.
const chunkMACs = 16384

// grainFor converts per-unit work into a chunk grain of ~chunkMACs.
func grainFor(unitMACs int) int {
	if unitMACs >= chunkMACs || unitMACs <= 0 {
		return 1
	}
	return (chunkMACs + unitMACs - 1) / unitMACs
}

// validateConv checks conv inputs the way a hardened runtime must:
// mismatched weights or degenerate parameters — the signature of a
// corrupted engine plan — return an error rather than crashing.
func validateConv(x, w, b *tensor.Tensor, p tensor.ConvParams) (oh, ow, groups, icg int, err error) {
	if x == nil || w == nil {
		return 0, 0, 0, 0, fmt.Errorf("kernels: conv with nil input or weights")
	}
	if p.Kernel < 1 || p.Stride < 1 || p.Pad < 0 || p.OutC < 1 {
		return 0, 0, 0, 0, fmt.Errorf("kernels: conv params k=%d s=%d p=%d outC=%d invalid", p.Kernel, p.Stride, p.Pad, p.OutC)
	}
	groups = p.Groups
	if groups <= 0 {
		groups = 1
	}
	if x.C%groups != 0 || p.OutC%groups != 0 {
		return 0, 0, 0, 0, fmt.Errorf("kernels: conv groups %d do not divide channels in=%d out=%d", groups, x.C, p.OutC)
	}
	icg = x.C / groups
	if want := p.OutC * icg * p.Kernel * p.Kernel; w.Len() != want {
		return 0, 0, 0, 0, fmt.Errorf("kernels: conv weight len %d, want %d", w.Len(), want)
	}
	if b != nil && b.Len() < p.OutC {
		return 0, 0, 0, 0, fmt.Errorf("kernels: conv bias len %d, want %d", b.Len(), p.OutC)
	}
	oh = tensor.ConvOutDim(x.H, p.Kernel, p.Stride, p.Pad)
	ow = tensor.ConvOutDim(x.W, p.Kernel, p.Stride, p.Pad)
	if oh < 1 || ow < 1 {
		return 0, 0, 0, 0, fmt.Errorf("kernels: conv output %dx%d not positive", oh, ow)
	}
	return oh, ow, groups, icg, nil
}

// ExecConv runs a convolution with variant-specific accumulation. The
// weight tensor layout matches tensor.Conv2D. Mismatched weights or
// degenerate parameters — the signature of a corrupted engine plan —
// return an error rather than crashing the process.
func ExecConv(v Variant, x, w, b *tensor.Tensor, p tensor.ConvParams) (*tensor.Tensor, error) {
	oh, ow, groups, icg, err := validateConv(x, w, b, p)
	if err != nil {
		return nil, err
	}
	y := tensor.New(x.N, p.OutC, oh, ow)
	execConv(v, x, w, b, p, y, oh, ow, groups, icg)
	return y, nil
}

// ExecConvInto is ExecConv writing into a caller-provided output tensor
// (every element is overwritten), so activation buffers can be reused
// across inferences instead of churning the allocator. y must have shape
// [x.N, p.OutC, oh, ow].
//
//rt:hotpath
func ExecConvInto(v Variant, x, w, b *tensor.Tensor, p tensor.ConvParams, y *tensor.Tensor) error {
	oh, ow, groups, icg, err := validateConv(x, w, b, p)
	if err != nil {
		return err
	}
	if y == nil || y.N != x.N || y.C != p.OutC || y.H != oh || y.W != ow {
		return fmt.Errorf("kernels: conv output buffer %v, want [%d %d %d %d]", y, x.N, p.OutC, oh, ow)
	}
	execConv(v, x, w, b, p, y, oh, ow, groups, icg)
	return nil
}

// convExec carries the validated geometry of one conv execution.
type convExec struct {
	v       Variant
	x, w, b *tensor.Tensor
	p       tensor.ConvParams
	y       *tensor.Tensor
	oh, ow  int
	groups  int
	icg     int // input channels per group
	ocg     int // output channels per group
	kk      int // Kernel*Kernel
	tileC   int // reduction-tile width in input channels
}

var convExecPool = sync.Pool{New: func() any { return new(convExec) }}

// execConv partitions the output across the worker pool. A depthwise
// conv (one input channel per group) is split by (batch, output channel,
// output row) and takes the direct kernel; every other conv is split by
// (batch, output row), and each row task computes every output channel
// of that row so the im2col patch gathered for one output pixel is
// reused across all channels of its group. The descriptor is pooled:
// dispatching a conv allocates nothing in the steady state.
func execConv(v Variant, x, w, b *tensor.Tensor, p tensor.ConvParams, y *tensor.Tensor, oh, ow, groups, icg int) {
	c := convExecPool.Get().(*convExec)
	*c = convExec{
		v: v, x: x, w: w, b: b, p: p, y: y,
		oh: oh, ow: ow, groups: groups, icg: icg,
		ocg: p.OutC / groups, kk: p.Kernel * p.Kernel,
		tileC: v.tileChannels(p.Kernel),
	}
	if icg == 1 {
		parallelFor(x.N*p.OutC*oh, grainFor(ow*c.kk), c)
	} else {
		parallelFor(x.N*oh, grainFor(ow*p.OutC*icg*c.kk), c)
	}
	*c = convExec{} // drop tensor references before pooling
	convExecPool.Put(c)
}

// chunk implements chunkBody over (batch, output channel, output row)
// units for depthwise convs and (batch, output row) units otherwise.
// Annotated directly because hotalloc does not traverse the chunkBody
// interface dispatch inside parallelFor.
//
//rt:hotpath
func (c *convExec) chunk(s *execScratch, lo, hi int) {
	for r := lo; r < hi; r++ {
		if c.icg == 1 {
			c.depthwiseRow(r/c.oh, r%c.oh)
		} else {
			c.row(s, r/c.oh, r%c.oh)
		}
	}
}

// window returns the in-bounds kernel taps [lo, hi) of a window that
// starts at input coordinate o0 over an input of size n. A window with
// no in-bounds tap (padding wider than the kernel) is [0, 0).
func window(o0, k, n int) (lo, hi int) {
	lo, hi = 0, k
	if o0 < 0 {
		lo = -o0
	}
	if o0+k > n {
		hi = n - o0
	}
	if hi <= lo {
		return 0, 0
	}
	return lo, hi
}

// rowTaps returns the kernel-row range to reduce over for an output whose
// column window is [kwLo, kwHi): the row window [khLo, khHi), or an
// empty range when no column is in bounds, so no input row is sliced.
func rowTaps(khLo, khHi, kwLo, kwHi int) (lo, hi int) {
	if kwLo == kwHi {
		return 0, 0
	}
	return khLo, khHi
}

// depthwiseRow computes one output row of one channel of a depthwise
// conv; nc indexes (batch, output channel) as n*OutC+oc. With one input
// channel per group the reduction is a single tile (tileC >= 1), so each
// output is one in-bounds-tap dot product, rounded where dotTile rounds
// a tile partial, then where combine folds a lone partial, then by
// store. Taps are accumulated in (kh, kw) order as w*x, exactly like
// reduceEdge and the patch path; out-of-bounds taps are skipped, never
// multiplied by a zero pad, so Inf and NaN weights on border taps cannot
// leak into edge pixels.
func (c *convExec) depthwiseRow(nc, i int) {
	v, k, stride, pad := c.v, c.p.Kernel, c.p.Stride, c.p.Pad
	h, w := c.x.H, c.x.W
	n, oc := nc/c.p.OutC, nc%c.p.OutC
	ic := oc / c.ocg
	ih0 := i*stride - pad
	khLo, khHi := window(ih0, k, h)
	plane := c.x.Data[(n*c.x.C+ic)*h*w : (n*c.x.C+ic+1)*h*w]
	wk := c.w.Data[oc*c.kk : (oc+1)*c.kk]
	var bias float32
	if c.b != nil {
		bias = c.b.Data[oc]
	}
	yrow := c.y.Data[((n*c.y.C+oc)*c.oh+i)*c.ow : ((n*c.y.C+oc)*c.oh+i+1)*c.ow]
	for j := range yrow {
		iw0 := j*stride - pad
		kwLo, kwHi := window(iw0, k, w)
		rowLo, rowHi := rowTaps(khLo, khHi, kwLo, kwHi)
		var acc float32
		for kh := rowLo; kh < rowHi; kh++ {
			xoff := (ih0+kh)*w + iw0
			xrow := plane[xoff+kwLo : xoff+kwHi]
			wrow := wk[kh*k+kwLo : kh*k+kwHi]
			for t, xv := range xrow {
				acc += wrow[t] * xv
			}
		}
		var folded float32 // combine's accumulator over the one partial
		val := v.roundTo(folded + v.roundTo(acc))
		val = v.roundTo(val + bias)
		if v.FusedAct && val < 0 {
			val = 0
		}
		yrow[j] = val
	}
}

// row computes one output row (n, i, all channels, all columns).
func (c *convExec) row(s *execScratch, n, i int) {
	k, stride, pad := c.p.Kernel, c.p.Stride, c.p.Pad
	ih0 := i*stride - pad
	khLo, khHi := window(ih0, k, c.x.H)
	for j := 0; j < c.ow; j++ {
		iw0 := j*stride - pad
		kwLo, kwHi := window(iw0, k, c.x.W)
		rowLo, rowHi := rowTaps(khLo, khHi, kwLo, kwHi)
		interior := khLo == 0 && khHi == k && kwLo == 0 && kwHi == k
		for g := 0; g < c.groups; g++ {
			oc0 := g * c.ocg
			if interior && c.ocg > 1 {
				// Implicit-GEMM path: gather the input patch once and
				// reuse it for every output channel of the group. The
				// patch is laid out exactly in reduction order (channel,
				// kh, kw), matching the weight layout, so each tile's dot
				// product accumulates in the serial order.
				patch := c.gather(s, n, g, ih0, iw0)
				for oc := oc0; oc < oc0+c.ocg; oc++ {
					wrow := c.w.Data[oc*c.icg*c.kk : (oc+1)*c.icg*c.kk]
					c.store(n, oc, i, j, c.v.reducePatch(s, patch, wrow, c.tileC, c.kk, c.icg))
				}
			} else {
				for oc := oc0; oc < oc0+c.ocg; oc++ {
					c.store(n, oc, i, j, c.reduceEdge(s, n, oc, g, ih0, iw0, rowLo, rowHi, kwLo, kwHi))
				}
			}
		}
	}
}

// store applies bias, the variant's epilogue rounding and the fused
// activation, then writes the element. Workers write disjoint rows, so
// no synchronization is needed.
func (c *convExec) store(n, oc, i, j int, val float32) {
	var bias float32
	if c.b != nil {
		bias = c.b.Data[oc]
	}
	val = c.v.roundTo(val + bias)
	if c.v.FusedAct && val < 0 {
		val = 0
	}
	c.y.Data[((n*c.y.C+oc)*c.oh+i)*c.ow+j] = val
}

// gather copies the full kxk input window of group g at (ih0, iw0) into
// the scratch patch buffer, in (channel, kh, kw) order. Only called for
// interior pixels, where the whole window is in bounds.
func (c *convExec) gather(s *execScratch, n, g, ih0, iw0 int) []float32 {
	k := c.p.Kernel
	patch := s.patchBuf(c.icg * c.kk)
	pi := 0
	for cc := 0; cc < c.icg; cc++ {
		ic := g*c.icg + cc
		off := ((n*c.x.C+ic)*c.x.H+ih0)*c.x.W + iw0
		for kh := 0; kh < k; kh++ {
			copy(patch[pi:pi+k], c.x.Data[off:off+k])
			pi += k
			off += c.x.W
		}
	}
	return patch
}

// reducePatch accumulates one output element from a gathered patch:
// channel tiles of tileC, each tile's partial rounded by dotTile, folded
// by combine — the exact serial reduction order.
func (v Variant) reducePatch(s *execScratch, patch, wrow []float32, tileC, kk, icg int) float32 {
	partials := s.tiles((icg + tileC - 1) / tileC)
	for c0 := 0; c0 < icg; c0 += tileC {
		c1 := c0 + tileC
		if c1 > icg {
			c1 = icg
		}
		partials = append(partials, v.dotTile(patch[c0*kk:c1*kk], wrow[c0*kk:c1*kk]))
	}
	s.partials = partials
	return v.combine(partials)
}

// dotTile computes one reduction tile's partial sum and rounds it to the
// variant precision. Every multiply-accumulate of the patch path flows
// through here, in ascending index order with w*x operand order — the
// same sequence the per-element serial loop produced.
func (v Variant) dotTile(x, w []float32) float32 {
	var acc float32
	for i, xv := range x {
		acc += w[i] * xv
	}
	return v.roundTo(acc)
}

// reduceEdge accumulates one output element the general way, iterating
// only the in-bounds kernel taps (identical to the serial loop, which
// skipped out-of-bounds taps). Row slices hoist the index arithmetic out
// of the inner loop.
func (c *convExec) reduceEdge(s *execScratch, n, oc, g, ih0, iw0, khLo, khHi, kwLo, kwHi int) float32 {
	k := c.p.Kernel
	partials := s.tiles((c.icg + c.tileC - 1) / c.tileC)
	for c0 := 0; c0 < c.icg; c0 += c.tileC {
		c1 := c0 + c.tileC
		if c1 > c.icg {
			c1 = c.icg
		}
		var acc float32
		for cc := c0; cc < c1; cc++ {
			ic := g*c.icg + cc
			wbase := (oc*c.icg + cc) * c.kk
			for kh := khLo; kh < khHi; kh++ {
				xoff := ((n*c.x.C+ic)*c.x.H+ih0+kh)*c.x.W + iw0
				woff := wbase + kh*k
				xrow := c.x.Data[xoff+kwLo : xoff+kwHi]
				wrow := c.w.Data[woff+kwLo : woff+kwHi]
				for t, xv := range xrow {
					acc += wrow[t] * xv
				}
			}
		}
		partials = append(partials, c.v.roundTo(acc))
	}
	s.partials = partials
	return c.v.combine(partials)
}

// combine folds tile partials into the final sum in the variant's order.
func (v Variant) combine(partials []float32) float32 {
	if len(partials) == 0 {
		return 0
	}
	if v.SplitK > 1 && len(partials) > 1 {
		// Split-K: independent accumulators per half, combined at the end.
		mid := len(partials) / 2
		var lo, hi float32
		for _, p := range partials[:mid] {
			lo = v.roundTo(lo + p)
		}
		for _, p := range partials[mid:] {
			hi = v.roundTo(hi + p)
		}
		return v.roundTo(lo + hi)
	}
	var acc float32
	for _, p := range partials {
		acc = v.roundTo(acc + p)
	}
	return acc
}

// validateFC checks FC inputs; see validateConv.
func validateFC(x, w, b *tensor.Tensor, out int) (in int, err error) {
	if x == nil || w == nil {
		return 0, fmt.Errorf("kernels: fc with nil input or weights")
	}
	if out < 1 {
		return 0, fmt.Errorf("kernels: fc with out=%d", out)
	}
	in = x.C * x.H * x.W
	if w.Len() != out*in {
		return 0, fmt.Errorf("kernels: fc weight len %d, want %d", w.Len(), out*in)
	}
	if b != nil && b.Len() < out {
		return 0, fmt.Errorf("kernels: fc bias len %d, want %d", b.Len(), out)
	}
	return in, nil
}

// ExecFC runs a fully-connected layer with variant-specific accumulation.
// Like ExecConv, malformed weights return an error instead of panicking.
func ExecFC(v Variant, x, w, b *tensor.Tensor, out int) (*tensor.Tensor, error) {
	in, err := validateFC(x, w, b, out)
	if err != nil {
		return nil, err
	}
	y := tensor.New(x.N, out, 1, 1)
	execFC(v, x, w, b, out, in, y)
	return y, nil
}

// ExecFCInto is ExecFC writing into a caller-provided [x.N, out, 1, 1]
// output tensor; every element is overwritten.
//
//rt:hotpath
func ExecFCInto(v Variant, x, w, b *tensor.Tensor, out int, y *tensor.Tensor) error {
	in, err := validateFC(x, w, b, out)
	if err != nil {
		return err
	}
	if y == nil || y.N != x.N || y.C != out || y.H != 1 || y.W != 1 {
		return fmt.Errorf("kernels: fc output buffer %v, want [%d %d 1 1]", y, x.N, out)
	}
	execFC(v, x, w, b, out, in, y)
	return nil
}

// fcExec carries the validated geometry of one FC execution.
type fcExec struct {
	v           Variant
	x, w, b     *tensor.Tensor
	y           *tensor.Tensor
	out, in     int
	tile, tiles int
}

var fcExecPool = sync.Pool{New: func() any { return new(fcExec) }}

// execFC partitions the output by (batch, output unit) across the worker
// pool; each unit's reduction tiles accumulate through dotTile in the
// serial order. Like execConv, the descriptor is pooled.
func execFC(v Variant, x, w, b *tensor.Tensor, out, in int, y *tensor.Tensor) {
	tile := v.TileK
	if tile < 1 {
		tile = in
	}
	f := fcExecPool.Get().(*fcExec)
	*f = fcExec{
		v: v, x: x, w: w, b: b, y: y,
		out: out, in: in, tile: tile, tiles: (in + tile - 1) / tile,
	}
	parallelFor(x.N*out, grainFor(in), f)
	*f = fcExec{}
	fcExecPool.Put(f)
}

// chunk implements chunkBody over (batch, output unit) units. Annotated
// directly, like (*convExec).chunk, to cover the interface dispatch.
//
//rt:hotpath
func (f *fcExec) chunk(s *execScratch, lo, hi int) {
	for u := lo; u < hi; u++ {
		n, o := u/f.out, u%f.out
		xrow := f.x.Data[n*f.in : (n+1)*f.in]
		wrow := f.w.Data[o*f.in : (o+1)*f.in]
		partials := s.tiles(f.tiles)
		for k0 := 0; k0 < f.in; k0 += f.tile {
			k1 := k0 + f.tile
			if k1 > f.in {
				k1 = f.in
			}
			partials = append(partials, f.v.dotTile(xrow[k0:k1], wrow[k0:k1]))
		}
		s.partials = partials
		val := f.v.combine(partials)
		if f.b != nil {
			val = f.v.roundTo(val + f.b.Data[o])
		}
		if f.v.FusedAct && val < 0 {
			val = 0
		}
		f.y.Data[n*f.out+o] = val
	}
}
