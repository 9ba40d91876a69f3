package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"edgeinfer/internal/fixrand"
)

func randTensor(key string, n, c, h, w int) *Tensor {
	src := fixrand.NewKeyed(key)
	t := New(n, c, h, w)
	for i := range t.Data {
		t.Data[i] = float32(src.NormFloat64())
	}
	return t
}

func TestNewShapeAndLen(t *testing.T) {
	x := New(2, 3, 4, 5)
	if x.Len() != 120 || len(x.Data) != 120 {
		t.Fatalf("len %d, want 120", x.Len())
	}
	if x.Shape() != [4]int{2, 3, 4, 5} {
		t.Fatalf("shape %v", x.Shape())
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0,1,1,1) did not panic")
		}
	}()
	New(0, 1, 1, 1)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4, 5)
	x.Set(1, 2, 3, 4, 42)
	if x.At(1, 2, 3, 4) != 42 {
		t.Fatal("At/Set mismatch")
	}
	// last element of the buffer
	if x.Data[119] != 42 {
		t.Fatal("indexing formula wrong for last element")
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := randTensor("clone", 1, 2, 3, 3)
	y := x.Clone()
	y.Data[0] = 999
	if x.Data[0] == 999 {
		t.Fatal("clone shares storage")
	}
}

func TestArgmax(t *testing.T) {
	x := NewVec(5)
	copy(x.Data, []float32{0.1, -3, 7, 7, 2})
	if got := x.Argmax(); got != 2 {
		t.Fatalf("argmax %d, want 2 (first of ties)", got)
	}
}

func TestConvOutDim(t *testing.T) {
	cases := []struct{ in, k, s, p, want int }{
		{224, 11, 4, 2, 55}, // AlexNet conv1
		{224, 3, 1, 1, 224}, // VGG same-conv
		{224, 7, 2, 3, 112}, // ResNet stem
		{13, 3, 1, 1, 13},
	}
	for _, c := range cases {
		if got := ConvOutDim(c.in, c.k, c.s, c.p); got != c.want {
			t.Errorf("ConvOutDim(%d,%d,%d,%d)=%d want %d", c.in, c.k, c.s, c.p, got, c.want)
		}
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	x := randTensor("convid", 1, 3, 5, 5)
	// 1x1 conv with identity weights per channel maps input to itself.
	w := New(3, 3, 1, 1)
	for c := 0; c < 3; c++ {
		w.Set(c, c, 0, 0, 1)
	}
	y := Conv2D(x, w, nil, ConvParams{OutC: 3, Kernel: 1, Stride: 1, Pad: 0, Groups: 1})
	if !y.SameShape(x) {
		t.Fatalf("shape %v want %v", y.Shape(), x.Shape())
	}
	for i := range x.Data {
		if x.Data[i] != y.Data[i] {
			t.Fatalf("identity conv altered data at %d", i)
		}
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 1x1x3x3 input, 3x3 all-ones kernel, pad 1: center output = sum of all.
	x := New(1, 1, 3, 3)
	for i := range x.Data {
		x.Data[i] = float32(i + 1) // 1..9
	}
	w := New(1, 1, 3, 3)
	w.Fill(1)
	y := Conv2D(x, w, nil, ConvParams{OutC: 1, Kernel: 3, Stride: 1, Pad: 1})
	if y.H != 3 || y.W != 3 {
		t.Fatalf("shape %v", y.Shape())
	}
	if got := y.At(0, 0, 1, 1); got != 45 {
		t.Fatalf("center %v want 45", got)
	}
	// corner (0,0) sees elements 1,2,4,5
	if got := y.At(0, 0, 0, 0); got != 12 {
		t.Fatalf("corner %v want 12", got)
	}
}

func TestConv2DBias(t *testing.T) {
	x := New(1, 1, 2, 2)
	w := New(1, 1, 1, 1)
	w.Fill(0)
	b := NewVec(1)
	b.Data[0] = 3.5
	y := Conv2D(x, w, b, ConvParams{OutC: 1, Kernel: 1, Stride: 1})
	for _, v := range y.Data {
		if v != 3.5 {
			t.Fatalf("bias not applied: %v", v)
		}
	}
}

func TestConv2DDepthwise(t *testing.T) {
	// Depthwise conv: groups == C. Each channel convolved independently.
	x := randTensor("dw", 1, 4, 6, 6)
	w := New(4, 1, 3, 3)
	wsrc := fixrand.NewKeyed("dww")
	for i := range w.Data {
		w.Data[i] = float32(wsrc.NormFloat64())
	}
	y := Conv2D(x, w, nil, ConvParams{OutC: 4, Kernel: 3, Stride: 1, Pad: 1, Groups: 4})
	if y.C != 4 || y.H != 6 {
		t.Fatalf("shape %v", y.Shape())
	}
	// Channel 0 of output must not depend on channel 1 of input.
	x2 := x.Clone()
	x2.Set(0, 1, 3, 3, x2.At(0, 1, 3, 3)+100)
	y2 := Conv2D(x2, w, nil, ConvParams{OutC: 4, Kernel: 3, Stride: 1, Pad: 1, Groups: 4})
	for h := 0; h < 6; h++ {
		for wi := 0; wi < 6; wi++ {
			if y.At(0, 0, h, wi) != y2.At(0, 0, h, wi) {
				t.Fatal("depthwise channel 0 depends on channel 1")
			}
		}
	}
}

func TestConv2DPanicsOnBadWeights(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong weight size")
		}
	}()
	x := New(1, 3, 4, 4)
	w := New(1, 1, 1, 1)
	Conv2D(x, w, nil, ConvParams{OutC: 8, Kernel: 3, Stride: 1, Pad: 1})
}

func TestMaxPool(t *testing.T) {
	x := New(1, 1, 4, 4)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	y := MaxPool2D(x, PoolParams{Kernel: 2, Stride: 2})
	want := []float32{5, 7, 13, 15}
	for i, v := range want {
		if y.Data[i] != v {
			t.Fatalf("maxpool[%d]=%v want %v", i, y.Data[i], v)
		}
	}
}

func TestMaxPoolIgnoresPadding(t *testing.T) {
	x := New(1, 1, 2, 2)
	x.Fill(-5)
	y := MaxPool2D(x, PoolParams{Kernel: 3, Stride: 1, Pad: 1})
	for _, v := range y.Data {
		if v != -5 {
			t.Fatalf("padding treated as zero in maxpool: %v", v)
		}
	}
}

func TestAvgPool(t *testing.T) {
	x := New(1, 1, 2, 2)
	copy(x.Data, []float32{1, 2, 3, 4})
	y := AvgPool2D(x, PoolParams{Kernel: 2, Stride: 2})
	if y.Data[0] != 2.5 {
		t.Fatalf("avgpool %v want 2.5", y.Data[0])
	}
}

func TestPoolIntoWindowsWithoutTaps(t *testing.T) {
	// Pad 1 around a 1x1 kernel: the ring of outputs reads no input, so
	// AvgPool must write 0 and MaxPool -Inf over any stale contents.
	x := New(1, 1, 2, 2)
	copy(x.Data, []float32{1, 2, 3, 4})
	p := PoolParams{Kernel: 1, Stride: 1, Pad: 1}
	avg, max := New(1, 1, 4, 4), New(1, 1, 4, 4)
	avg.Fill(float32(math.NaN()))
	max.Fill(float32(math.NaN()))
	AvgPool2DInto(x, p, avg)
	MaxPool2DInto(x, p, max)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			inside := i >= 1 && i <= 2 && j >= 1 && j <= 2
			wantAvg, wantMax := float32(0), float32(math.Inf(-1))
			if inside {
				wantAvg = x.At(0, 0, i-1, j-1)
				wantMax = wantAvg
			}
			if got := avg.At(0, 0, i, j); got != wantAvg {
				t.Fatalf("avgpool (%d,%d) = %v, want %v", i, j, got, wantAvg)
			}
			if got := max.At(0, 0, i, j); got != wantMax {
				t.Fatalf("maxpool (%d,%d) = %v, want %v", i, j, got, wantMax)
			}
		}
	}
}

func TestIntoFormsRejectMisshapedOutput(t *testing.T) {
	x := New(1, 2, 4, 4)
	for name, f := range map[string]func(){
		"avgpool": func() { AvgPool2DInto(x, PoolParams{Kernel: 2, Stride: 2}, New(1, 2, 4, 4)) },
		"maxpool": func() { MaxPool2DInto(x, PoolParams{Kernel: 2, Stride: 2}, New(1, 2, 3, 2)) },
		"softmax": func() { SoftmaxInto(x, New(1, 3, 4, 4)) },
		"concat":  func() { ConcatInto(New(1, 3, 4, 4), x, x) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a mis-shaped output", name)
				}
			}()
			f()
		}()
	}
}

func TestGlobalAvgPool(t *testing.T) {
	x := New(2, 3, 4, 4)
	x.Fill(2)
	y := GlobalAvgPool2D(x)
	if y.N != 2 || y.C != 3 || y.H != 1 || y.W != 1 {
		t.Fatalf("shape %v", y.Shape())
	}
	for _, v := range y.Data {
		if v != 2 {
			t.Fatalf("gap value %v want 2", v)
		}
	}
}

func TestReLU(t *testing.T) {
	x := NewVec(3)
	copy(x.Data, []float32{-1, 0, 2})
	y := ReLU(x)
	if y.Data[0] != 0 || y.Data[1] != 0 || y.Data[2] != 2 {
		t.Fatalf("relu %v", y.Data)
	}
	if x.Data[0] != -1 {
		t.Fatal("relu mutated input")
	}
}

func TestLeakyReLU(t *testing.T) {
	x := NewVec(2)
	copy(x.Data, []float32{-10, 10})
	y := LeakyReLU(x, 0.1)
	if y.Data[0] != -1 || y.Data[1] != 10 {
		t.Fatalf("leaky %v", y.Data)
	}
}

func TestSigmoidBounds(t *testing.T) {
	x := NewVec(3)
	copy(x.Data, []float32{-100, 0, 100})
	y := Sigmoid(x)
	if y.Data[0] > 1e-6 || math.Abs(float64(y.Data[1]-0.5)) > 1e-6 || y.Data[2] < 1-1e-6 {
		t.Fatalf("sigmoid %v", y.Data)
	}
}

func TestFC(t *testing.T) {
	x := New(1, 2, 1, 1)
	copy(x.Data, []float32{1, 2})
	w := New(1, 6, 1, 1) // [3 out, 2 in]
	copy(w.Data, []float32{1, 0, 0, 1, 1, 1})
	b := NewVec(3)
	copy(b.Data, []float32{0, 0, 10})
	y := FC(x, w, b, 3)
	want := []float32{1, 2, 13}
	for i, v := range want {
		if y.Data[i] != v {
			t.Fatalf("fc[%d]=%v want %v", i, y.Data[i], v)
		}
	}
}

func TestFCBatch(t *testing.T) {
	x := New(2, 3, 1, 1)
	copy(x.Data, []float32{1, 0, 0, 0, 1, 0})
	w := New(1, 9, 1, 1)
	for i := 0; i < 3; i++ {
		w.Data[i*3+i] = float32(i + 1) // diag(1,2,3)
	}
	y := FC(x, w, nil, 3)
	if y.At(0, 0, 0, 0) != 1 || y.At(1, 1, 0, 0) != 2 {
		t.Fatalf("fc batch wrong: %v", y.Data)
	}
}

func TestBatchNorm(t *testing.T) {
	x := New(1, 2, 1, 2)
	copy(x.Data, []float32{1, 3, 10, 20})
	gamma, beta, mean, variance := NewVec(2), NewVec(2), NewVec(2), NewVec(2)
	gamma.Fill(1)
	copy(mean.Data, []float32{2, 15})
	copy(variance.Data, []float32{1, 25})
	y := BatchNorm(x, gamma, beta, mean, variance, 0)
	want := []float32{-1, 1, -1, 1}
	for i, v := range want {
		if math.Abs(float64(y.Data[i]-v)) > 1e-5 {
			t.Fatalf("bn[%d]=%v want %v", i, y.Data[i], v)
		}
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	x := randTensor("sm", 2, 7, 3, 3)
	y := Softmax(x)
	for n := 0; n < 2; n++ {
		for h := 0; h < 3; h++ {
			for w := 0; w < 3; w++ {
				var sum float64
				for c := 0; c < 7; c++ {
					v := y.At(n, c, h, w)
					if v < 0 || v > 1 {
						t.Fatalf("softmax out of range: %v", v)
					}
					sum += float64(v)
				}
				if math.Abs(sum-1) > 1e-5 {
					t.Fatalf("softmax sum %v", sum)
				}
			}
		}
	}
}

func TestSoftmaxPreservesArgmax(t *testing.T) {
	x := randTensor("sma", 1, 10, 1, 1)
	y := Softmax(x)
	if x.Argmax() != y.Argmax() {
		t.Fatal("softmax changed argmax")
	}
}

func TestAdd(t *testing.T) {
	a := randTensor("adda", 1, 2, 2, 2)
	b := randTensor("addb", 1, 2, 2, 2)
	y := Add(a, b)
	for i := range y.Data {
		if y.Data[i] != a.Data[i]+b.Data[i] {
			t.Fatal("add wrong")
		}
	}
}

func TestAddPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape mismatch")
		}
	}()
	Add(New(1, 1, 1, 1), New(1, 2, 1, 1))
}

func TestConcat(t *testing.T) {
	a := New(1, 2, 2, 2)
	a.Fill(1)
	b := New(1, 3, 2, 2)
	b.Fill(2)
	y := Concat(a, b)
	if y.C != 5 {
		t.Fatalf("concat C=%d want 5", y.C)
	}
	if y.At(0, 0, 0, 0) != 1 || y.At(0, 2, 0, 0) != 2 {
		t.Fatal("concat data placement wrong")
	}
}

func TestUpsample2x(t *testing.T) {
	x := New(1, 1, 2, 2)
	copy(x.Data, []float32{1, 2, 3, 4})
	y := Upsample2x(x)
	if y.H != 4 || y.W != 4 {
		t.Fatalf("shape %v", y.Shape())
	}
	if y.At(0, 0, 0, 0) != 1 || y.At(0, 0, 1, 1) != 1 || y.At(0, 0, 3, 3) != 4 {
		t.Fatal("upsample values wrong")
	}
}

func TestLRNIdentityForZeroAlpha(t *testing.T) {
	x := randTensor("lrn", 1, 8, 3, 3)
	y := LRN(x, 5, 0, 0.75, 1)
	for i := range x.Data {
		if math.Abs(float64(y.Data[i]-x.Data[i])) > 1e-6 {
			t.Fatal("LRN with alpha=0, k=1 should be identity")
		}
	}
}

func TestLRNReducesMagnitude(t *testing.T) {
	x := New(1, 5, 1, 1)
	x.Fill(10)
	y := LRN(x, 5, 1e-1, 0.75, 1)
	for i := range y.Data {
		if math.Abs(float64(y.Data[i])) >= math.Abs(float64(x.Data[i])) {
			t.Fatal("LRN did not attenuate large responses")
		}
	}
}

// Property: conv with stride 1, pad k/2 (odd k) preserves spatial dims.
func TestConvSamePaddingProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, hw, kRaw uint8) bool {
		h := int(hw%10) + 3
		k := []int{1, 3, 5}[int(kRaw)%3]
		return ConvOutDim(h, k, 1, k/2) == h
	}, nil); err != nil {
		t.Fatal(err)
	}
}
