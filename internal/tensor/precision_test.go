package tensor

import (
	"flag"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"edgeinfer/internal/fixrand"
)

func TestPrecisionString(t *testing.T) {
	if FP32.String() != "fp32" || FP16.String() != "fp16" || INT8.String() != "int8" {
		t.Fatal("precision strings wrong")
	}
	if Precision(99).String() != "unknown" {
		t.Fatal("unknown precision string")
	}
}

func TestPrecisionBytes(t *testing.T) {
	if FP32.Bytes() != 4 || FP16.Bytes() != 2 || INT8.Bytes() != 1 {
		t.Fatal("precision byte sizes wrong")
	}
}

func TestRoundFP16Exact(t *testing.T) {
	// Values exactly representable in binary16 are unchanged.
	for _, v := range []float32{0, 1, -1, 0.5, 2048, -0.25, 65504} {
		if got := RoundFP16(v); got != v {
			t.Errorf("RoundFP16(%v)=%v, want exact", v, got)
		}
	}
}

func TestRoundFP16KnownRounding(t *testing.T) {
	// 1 + 2^-11 is exactly between 1 and 1+2^-10; round-to-even gives 1.
	v := float32(1 + math.Pow(2, -11))
	if got := RoundFP16(v); got != 1 {
		t.Errorf("round-to-even: RoundFP16(%v)=%v want 1", v, got)
	}
	// 1 + 3*2^-11 rounds up to 1+2^-9... check it rounds to nearest: 1+2^-10*2
	v2 := float32(1 + 3*math.Pow(2, -11))
	want := float32(1 + 2*math.Pow(2, -10))
	if got := RoundFP16(v2); got != want {
		t.Errorf("RoundFP16(%v)=%v want %v", v2, got, want)
	}
}

func TestRoundFP16Overflow(t *testing.T) {
	if !math.IsInf(float64(RoundFP16(1e6)), 1) {
		t.Fatal("large value should overflow to +Inf")
	}
	if !math.IsInf(float64(RoundFP16(-1e6)), -1) {
		t.Fatal("large negative should overflow to -Inf")
	}
}

func TestRoundFP16NaN(t *testing.T) {
	nan := float32(math.NaN())
	if !math.IsNaN(float64(RoundFP16(nan))) {
		t.Fatal("NaN not preserved")
	}
}

func TestRoundFP16Subnormal(t *testing.T) {
	// Smallest positive half subnormal is 2^-24.
	v := float32(math.Pow(2, -24))
	if got := RoundFP16(v); got != v {
		t.Errorf("subnormal 2^-24: got %v want %v", got, v)
	}
	// 2^-26 underflows to zero.
	if got := RoundFP16(float32(math.Pow(2, -26))); got != 0 {
		t.Errorf("2^-26 should flush to 0, got %v", got)
	}
}

// Property: FP16 rounding is idempotent and relative error is bounded by
// 2^-11 for normal-range values.
func TestRoundFP16Properties(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := fixrand.New(seed)
		v := float32((src.Float64()*2 - 1) * 1000)
		r := RoundFP16(v)
		if RoundFP16(r) != r {
			return false // not idempotent
		}
		if v != 0 {
			rel := math.Abs(float64(r-v)) / math.Abs(float64(v))
			if rel > math.Pow(2, -10) { // generous bound incl. subnormal edge
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// fp16FullSweep opts into checking RoundFP16 against the converter on
// all 2^32 float32 bit patterns (about a minute on two cores):
//
//	go test ./internal/tensor -run TestRoundFP16MatchesConverter -args -fp16.full
var fp16FullSweep = flag.Bool("fp16.full", false, "check RoundFP16 against the converter on every float32")

// roundFP16Ref is the converter round trip RoundFP16's fast path must
// reproduce bit for bit.
func roundFP16Ref(v float32) float32 { return fp16BitsToFloat(floatToFP16Bits(v)) }

// checkRoundFP16Range compares RoundFP16 with the converter on the
// float32 bit patterns [lo, hi], split across two goroutines. It reports
// the first mismatch it sees.
func checkRoundFP16Range(t *testing.T, lo, hi uint32) {
	t.Helper()
	const parts = 2
	var wg sync.WaitGroup
	bad := make([]string, parts)
	span := (uint64(hi) - uint64(lo) + 1) / parts
	for p := 0; p < parts; p++ {
		a := uint64(lo) + uint64(p)*span
		b := a + span - 1
		if p == parts-1 {
			b = uint64(hi)
		}
		wg.Add(1)
		go func(p int, a, b uint64) {
			defer wg.Done()
			for u := a; u <= b; u++ {
				v := math.Float32frombits(uint32(u))
				if got, want := math.Float32bits(RoundFP16(v)), math.Float32bits(roundFP16Ref(v)); got != want {
					bad[p] = fmt.Sprintf("RoundFP16(%08x) = %08x, converter gives %08x", u, got, want)
					return
				}
			}
		}(p, a, b)
	}
	wg.Wait()
	for _, msg := range bad {
		if msg != "" {
			t.Fatal(msg)
		}
	}
}

// TestRoundFP16MatchesConverter pins the float32-domain fast path to the
// converter bit for bit: every sign and mantissa at the exponents that
// border a path or range switch (underflow, subnormal, normal, the fast
// range's ends, overflow, Inf/NaN), then all 65,536 halves with their
// ±1-ulp and tie-midpoint neighbours.
func TestRoundFP16MatchesConverter(t *testing.T) {
	if *fp16FullSweep {
		checkRoundFP16Range(t, 0, math.MaxUint32)
		return
	}
	for _, exp := range []uint32{0, 102, 103, 112, 113, 127, 142, 143, 255} {
		for _, sign := range []uint32{0, 1} {
			base := sign<<31 | exp<<23
			checkRoundFP16Range(t, base, base|0x7fffff)
		}
	}
	for h := 0; h < 1<<16; h++ {
		f := fp16BitsToFloat(uint16(h))
		b := math.Float32bits(f)
		for _, u := range []uint32{b, b - 1, b + 1, b + 0x1000, b - 0x1000} {
			v := math.Float32frombits(u)
			if got, want := math.Float32bits(RoundFP16(v)), math.Float32bits(roundFP16Ref(v)); got != want {
				t.Fatalf("half %04x neighbour %08x: RoundFP16 = %08x, converter gives %08x", h, u, got, want)
			}
		}
	}
}

func TestQuantScale(t *testing.T) {
	x := NewVec(4)
	copy(x.Data, []float32{-254, 1, 0, 127})
	if got := QuantScale(x); got != 2 {
		t.Fatalf("scale %v want 2", got)
	}
	z := NewVec(3)
	if QuantScale(z) != 1 {
		t.Fatal("zero tensor scale should be 1")
	}
}

func TestQuantizeINT8Clamps(t *testing.T) {
	if QuantizeINT8(1000, 1) != 127 || QuantizeINT8(-1000, 1) != -127 {
		t.Fatal("int8 clamp failed")
	}
}

func TestQuantDequantRoundTripBound(t *testing.T) {
	// Property: |dequant(quant(v)) - v| <= scale/2 for v within range.
	if err := quick.Check(func(seed uint64) bool {
		src := fixrand.New(seed)
		scale := float32(src.Float64()*10 + 0.01)
		v := float32((src.Float64()*2 - 1)) * scale * 127
		q := QuantizeINT8(v, scale)
		d := DequantizeINT8(q, scale)
		return math.Abs(float64(d-v)) <= float64(scale)/2+1e-6
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTensorINT8(t *testing.T) {
	x := NewVec(3)
	copy(x.Data, []float32{-127, 0, 127})
	y, scale := RoundTensorINT8(x)
	if scale != 1 {
		t.Fatalf("scale %v want 1", scale)
	}
	if y.Data[0] != -127 || y.Data[2] != 127 {
		t.Fatalf("round trip %v", y.Data)
	}
}

func TestRoundTensorFP16InPlace(t *testing.T) {
	x := NewVec(2)
	copy(x.Data, []float32{1.0000001, 2})
	y := RoundTensorFP16(x)
	if y != x {
		t.Fatal("should return same tensor")
	}
	if x.Data[0] != 1 {
		t.Fatalf("not rounded: %v", x.Data[0])
	}
}

func TestRoundValueDispatch(t *testing.T) {
	if RoundValue(1.5, FP32, 1) != 1.5 {
		t.Fatal("fp32 should be identity")
	}
	if RoundValue(1.0004883, FP16, 1) == 1.0004883 {
		// 1.0004883 is representable? 1+2^-11 is not; ensure rounding occurred
		t.Log("fp16 kept value (representable)")
	}
	got := RoundValue(3.4, INT8, 1)
	if got != 3 {
		t.Fatalf("int8 round %v want 3", got)
	}
}
