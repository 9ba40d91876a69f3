package graph

import (
	"fmt"

	"edgeinfer/internal/tensor"
)

// batchNormKeys is hoisted: EvalLayer sits on the batched-inference hot
// path and may not allocate the key list per call.
var batchNormKeys = []string{"gamma", "beta", "mean", "var"}

// Execute runs the graph numerically on input x using the bit-exact
// reference operators of internal/tensor, in FP32 throughout. This is the
// "un-optimized" execution path of the paper: one kernel per layer, no
// fusion, no quantization. It returns the tensors of all declared
// outputs. The graph must be finalized and must have weights materialized
// for every parametric layer.
func (g *Graph) Execute(x *tensor.Tensor) ([]*tensor.Tensor, error) {
	if !g.finalized {
		return nil, fmt.Errorf("graph %s: Execute before Finalize", g.Name)
	}
	want := g.InputShape
	if x.N != want[0] || x.C != want[1] || x.H != want[2] || x.W != want[3] {
		return nil, fmt.Errorf("graph %s: input shape %v, want %v", g.Name, x.Shape(), want)
	}
	acts := map[string]*tensor.Tensor{}
	for _, l := range g.Layers {
		var y *tensor.Tensor
		var err error
		if l.Op == OpInput {
			y = x
		} else {
			ins := make([]*tensor.Tensor, len(l.Inputs))
			for i, name := range l.Inputs {
				ins[i] = acts[name]
			}
			y, err = EvalLayer(l, ins)
			if err != nil {
				return nil, fmt.Errorf("graph %s, layer %s: %w", g.Name, l.Name, err)
			}
		}
		acts[l.Name] = y
	}
	outs := make([]*tensor.Tensor, len(g.Outputs))
	for i, name := range g.Outputs {
		outs[i] = acts[name]
	}
	return outs, nil
}

// EvalLayer evaluates a single layer on the given input tensors with the
// reference operators, each output freshly allocated. It is
// EvalLayerInto drawing from tensor.New.
func EvalLayer(l *Layer, ins []*tensor.Tensor) (*tensor.Tensor, error) {
	return EvalLayerInto(l, ins, tensor.New)
}

// EvalLayerInto evaluates a single layer on the given input tensors with
// the reference operators. It is exported so that the engine runtime can
// fall back to reference math for ops without specialized kernels.
// Pooling, softmax, concat and flatten write their output into a buffer
// from alloc, which may hand back a recycled buffer with stale contents:
// those operators overwrite every element. The other operators allocate
// their own output, and pass-through ops return an input.
//
// The reference operators in internal/tensor panic on malformed
// shapes/parameters — appropriate for model-construction bugs, but this
// entry point is also reachable from deserialized (untrusted) engine
// plans via Engine.Infer, so EvalLayerInto validates the hostile cases up
// front and converts any residual operator panic into an error: a
// corrupted engine must degrade, not crash the process.
func EvalLayerInto(l *Layer, ins []*tensor.Tensor, alloc func(n, c, h, w int) *tensor.Tensor) (y *tensor.Tensor, err error) {
	if len(ins) == 0 {
		return nil, fmt.Errorf("layer has no inputs")
	}
	for i, t := range ins {
		if t == nil {
			return nil, fmt.Errorf("input %d not materialized", i)
		}
	}
	defer func() {
		if r := recover(); r != nil {
			y, err = nil, fmt.Errorf("eval %s(%s): %v", l.Name, l.Op, r)
		}
	}()
	in := ins[0]
	switch l.Op {
	case OpConv:
		w, b := l.Weights["w"], l.Weights["b"]
		if w == nil {
			return nil, fmt.Errorf("conv has no weights materialized")
		}
		if err := checkConv(in, w, b, l.Conv); err != nil {
			return nil, err
		}
		return tensor.Conv2D(in, w, b, l.Conv), nil
	case OpMaxPool, OpAvgPool:
		p := l.Pool
		y = alloc(in.N, in.C, tensor.ConvOutDim(in.H, p.Kernel, p.Stride, p.Pad), tensor.ConvOutDim(in.W, p.Kernel, p.Stride, p.Pad))
		if l.Op == OpMaxPool {
			tensor.MaxPool2DInto(in, p, y)
		} else {
			tensor.AvgPool2DInto(in, p, y)
		}
		return y, nil
	case OpGlobalAvgPool:
		return tensor.GlobalAvgPool2D(in), nil
	case OpReLU:
		return tensor.ReLU(in), nil
	case OpLeakyReLU:
		return tensor.LeakyReLU(in, l.Alpha), nil
	case OpSigmoid:
		return tensor.Sigmoid(in), nil
	case OpFC:
		w, b := l.Weights["w"], l.Weights["b"]
		if w == nil {
			return nil, fmt.Errorf("fc has no weights materialized")
		}
		if l.OutUnits < 1 {
			return nil, fmt.Errorf("fc with OutUnits=%d", l.OutUnits)
		}
		if want := l.OutUnits * in.C * in.H * in.W; w.Len() != want {
			return nil, fmt.Errorf("fc weight len %d, want %d", w.Len(), want)
		}
		if b != nil && b.Len() < l.OutUnits {
			return nil, fmt.Errorf("fc bias len %d, want %d", b.Len(), l.OutUnits)
		}
		return tensor.FC(in, w, b, l.OutUnits), nil
	case OpBatchNorm:
		for _, k := range batchNormKeys {
			if t := l.Weights[k]; t != nil && t.Len() < in.C {
				return nil, fmt.Errorf("batchnorm %s len %d, want %d", k, t.Len(), in.C)
			}
		}
		return tensor.BatchNorm(in, l.Weights["gamma"], l.Weights["beta"], l.Weights["mean"], l.Weights["var"], 1e-5), nil
	case OpLRN:
		return tensor.LRN(in, l.LRNSize, l.Alpha, l.LRNBeta, l.LRNK), nil
	case OpSoftmax:
		y = alloc(in.N, in.C, in.H, in.W)
		tensor.SoftmaxInto(in, y)
		return y, nil
	case OpAdd:
		y := ins[0]
		for _, t := range ins[1:] {
			if !y.SameShape(t) {
				return nil, fmt.Errorf("add shape mismatch %v vs %v", y.Shape(), t.Shape())
			}
			y = tensor.Add(y, t)
		}
		return y, nil
	case OpConcat:
		y = alloc(tensor.ConcatShape(ins...))
		tensor.ConcatInto(y, ins...)
		return y, nil
	case OpUpsample:
		return tensor.Upsample2x(in), nil
	case OpDropout:
		return in, nil // inference-time identity
	case OpScale:
		gamma, beta := l.Weights["gamma"], l.Weights["beta"]
		y := in.Clone()
		for c := 0; c < y.C; c++ {
			var sc, sh float32 = 1, 0
			if gamma != nil {
				sc = gamma.Data[c]
			}
			if beta != nil {
				sh = beta.Data[c]
			}
			for n := 0; n < y.N; n++ {
				for h := 0; h < y.H; h++ {
					for w := 0; w < y.W; w++ {
						y.Set(n, c, h, w, sc*in.At(n, c, h, w)+sh)
					}
				}
			}
		}
		return y, nil
	case OpFlatten:
		y = alloc(in.N, in.C*in.H*in.W, 1, 1)
		copy(y.Data, in.Data)
		return y, nil
	default:
		return nil, fmt.Errorf("EvalLayer: unsupported op %v", l.Op)
	}
}

// checkConv validates the conditions tensor.Conv2D would panic on, so a
// corrupted plan produces an error instead.
func checkConv(x, w, b *tensor.Tensor, p tensor.ConvParams) error {
	if p.Kernel < 1 || p.Stride < 1 || p.Pad < 0 || p.OutC < 1 {
		return fmt.Errorf("conv params k=%d s=%d p=%d outC=%d invalid", p.Kernel, p.Stride, p.Pad, p.OutC)
	}
	groups := p.Groups
	if groups <= 0 {
		groups = 1
	}
	if x.C%groups != 0 || p.OutC%groups != 0 {
		return fmt.Errorf("conv groups %d do not divide channels in=%d out=%d", groups, x.C, p.OutC)
	}
	if want := p.OutC * (x.C / groups) * p.Kernel * p.Kernel; w.Len() != want {
		return fmt.Errorf("conv weight len %d, want %d", w.Len(), want)
	}
	if b != nil && b.Len() < p.OutC {
		return fmt.Errorf("conv bias len %d, want %d", b.Len(), p.OutC)
	}
	if tensor.ConvOutDim(x.H, p.Kernel, p.Stride, p.Pad) < 1 ||
		tensor.ConvOutDim(x.W, p.Kernel, p.Stride, p.Pad) < 1 {
		return fmt.Errorf("conv output not positive for input %v", x.Shape())
	}
	return nil
}
