package tensor

import "math"

// Precision identifies the numeric precision a kernel or engine computes
// in. The builder's quantization pass converts FP32 graphs to FP16 or
// INT8 plans, mirroring TensorRT optimization step 4 of the paper.
type Precision uint8

const (
	FP32 Precision = iota
	FP16
	INT8
)

// String implements fmt.Stringer.
func (p Precision) String() string {
	switch p {
	case FP32:
		return "fp32"
	case FP16:
		return "fp16"
	case INT8:
		return "int8"
	default:
		return "unknown"
	}
}

// Bytes returns the storage size in bytes of one element at precision p.
func (p Precision) Bytes() int {
	switch p {
	case FP32:
		return 4
	case FP16:
		return 2
	case INT8:
		return 1
	default:
		return 4
	}
}

// RoundFP16 rounds a float32 to the nearest IEEE 754 binary16 value and
// returns it widened back to float32. Overflow saturates to ±Inf and
// subnormals flush following round-to-nearest-even.
//
// Every kernel rounding point lands here, so the normal half range below
// its top binade (float32 exponents 113..141) rounds in the float32
// domain without the half round trip: adding 0xfff plus the lowest kept
// bit to the bits rounds the 13 mantissa bits a half drops to nearest
// even, and a mantissa carry walks into the exponent exactly as the
// converter's does. The top binade (which may overflow), subnormals,
// underflow, Inf and NaN take the converter. Both paths agree bit for
// bit (TestRoundFP16MatchesConverter).
func RoundFP16(v float32) float32 {
	b := math.Float32bits(v)
	if e := b >> 23 & 0xff; e-fp16FastExpLo < fp16FastExpHi-fp16FastExpLo {
		b += 0xfff + b>>13&1
		return math.Float32frombits(b &^ 0x1fff)
	}
	return fp16BitsToFloat(floatToFP16Bits(v))
}

// The float32 exponent range [fp16FastExpLo, fp16FastExpHi) RoundFP16
// rounds without the converter: normal halves (2^-14 and up) whose
// rounding cannot overflow (below 2^15).
const (
	fp16FastExpLo = 113
	fp16FastExpHi = 142
)

// floatToFP16Bits converts float32 to IEEE binary16 bits with
// round-to-nearest-even.
func floatToFP16Bits(v float32) uint16 {
	b := math.Float32bits(v)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23) & 0xff
	man := b & 0x7fffff
	switch {
	case exp == 0xff: // Inf or NaN
		if man != 0 {
			return sign | 0x7e00 // quiet NaN
		}
		return sign | 0x7c00
	case exp > 142: // overflow -> Inf (exp-127 > 15)
		return sign | 0x7c00
	case exp >= 113: // normal range (exp-127 >= -14)
		he := uint16(exp-112) << 10
		hm := uint16(man >> 13)
		// round to nearest even on the truncated 13 bits
		round := man & 0x1fff
		if round > 0x1000 || (round == 0x1000 && hm&1 == 1) {
			hm++
			if hm == 0x400 {
				hm = 0
				he += 1 << 10
				if he >= 0x7c00 {
					return sign | 0x7c00
				}
			}
		}
		return sign | he | hm
	case exp >= 103: // subnormal half: value = hm * 2^-24
		shift := uint32(126 - exp) // in [14, 23]
		full := man | 0x800000
		hm := uint16(full >> shift)
		round := full & (1<<shift - 1)
		half := uint32(1) << (shift - 1)
		if round > half || (round == half && hm&1 == 1) {
			hm++ // may carry into the normal range, which is still correct bits
		}
		return sign | hm
	default: // underflow to zero
		return sign
	}
}

// fp16BitsToFloat widens IEEE binary16 bits to float32.
func fp16BitsToFloat(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	man := uint32(h & 0x3ff)
	switch {
	case exp == 0x1f: // Inf/NaN
		return math.Float32frombits(sign | 0x7f800000 | man<<13)
	case exp == 0:
		if man == 0 {
			return math.Float32frombits(sign)
		}
		// subnormal: normalize
		e := uint32(113)
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		man &= 0x3ff
		return math.Float32frombits(sign | (e << 23) | (man << 13))
	default:
		return math.Float32frombits(sign | ((exp + 112) << 23) | (man << 13))
	}
}

// RoundTensorFP16 rounds every element of t to FP16 in place and returns t.
func RoundTensorFP16(t *Tensor) *Tensor {
	for i, v := range t.Data {
		t.Data[i] = RoundFP16(v)
	}
	return t
}

// QuantScale returns the symmetric INT8 quantization scale for a tensor
// calibrated to its max-abs dynamic range: scale = maxabs / 127.
// A zero tensor yields scale 1 so that quantization is a no-op.
func QuantScale(t *Tensor) float32 {
	m := t.MaxAbs()
	if m == 0 {
		return 1
	}
	return m / 127
}

// QuantizeINT8 quantizes v symmetrically with the given scale, clamping
// to [-127, 127].
func QuantizeINT8(v, scale float32) int8 {
	q := float64(v / scale)
	r := math.RoundToEven(q)
	if r > 127 {
		r = 127
	} else if r < -127 {
		r = -127
	}
	return int8(r)
}

// DequantizeINT8 widens a quantized value back to float32.
func DequantizeINT8(q int8, scale float32) float32 {
	return float32(q) * scale
}

// RoundTensorINT8 quantize-dequantizes every element of t in place with a
// tensor-wide max-abs calibrated scale, emulating INT8 inference numerics.
// It returns t and the scale used.
func RoundTensorINT8(t *Tensor) (*Tensor, float32) {
	scale := QuantScale(t)
	for i, v := range t.Data {
		t.Data[i] = DequantizeINT8(QuantizeINT8(v, scale), scale)
	}
	return t, scale
}

// RoundValue rounds v to precision p (identity for FP32).
func RoundValue(v float32, p Precision, int8Scale float32) float32 {
	switch p {
	case FP16:
		return RoundFP16(v)
	case INT8:
		return DequantizeINT8(QuantizeINT8(v, int8Scale), int8Scale)
	default:
		return v
	}
}
