package main

import (
	"fmt"
	"math"

	"edgeinfer/internal/dataset"
	"edgeinfer/internal/fixrand"
	"edgeinfer/internal/models"
	"edgeinfer/internal/tensor"
)

// labeled is one generated input image and its true class.
type labeled struct {
	image *tensor.Tensor
	label int
}

// seededImages generates n dataset-style images from seed: a class
// template plus the dataset's observation noise, every second image
// further corrupted with a seeded ImageNet-C corruption at severity 1
// or 5. The templates are the ones the numeric proxies were trained on,
// so the images are classifiable; the seed only picks classes, noise and
// corruptions.
func seededImages(seed int64, n int) []labeled {
	opts := models.DefaultProxyOptions()
	tpl := dataset.Templates(opts.Seed, opts.Classes)
	sigma := dataset.DefaultBenign(1).NoiseSigma
	pick := fixrand.NewKeyed(fmt.Sprintf("perfbench/%d/inputs", seed))
	corruptions := dataset.Corruptions()
	out := make([]labeled, n)
	for k := range out {
		c := pick.Intn(len(tpl))
		key := fmt.Sprintf("perfbench/%d/img%d", seed, k)
		noise := fixrand.NewKeyed(key)
		img := tpl[c].Clone()
		for i := range img.Data {
			img.Data[i] += float32(sigma * noise.NormFloat64())
		}
		if k%2 == 1 {
			ct := corruptions[pick.Intn(len(corruptions))]
			sev := 1 + 4*pick.Intn(2)
			img = dataset.Corrupt(img, ct, sev, key)
		}
		out[k] = labeled{image: img, label: c}
	}
	return out
}

// argmax mirrors the serving front-end's reply rule: the index of the
// largest element, lowest index on ties, -1 for an empty tensor.
func argmax(t *tensor.Tensor) int {
	if t == nil || len(t.Data) == 0 {
		return -1
	}
	best := 0
	for i, v := range t.Data {
		if v > t.Data[best] {
			best = i
		}
	}
	return best
}

// sameBits reports whether two tensors hold bit-identical data.
func sameBits(a, b *tensor.Tensor) bool {
	if a == nil || b == nil || len(a.Data) != len(b.Data) {
		return false
	}
	for i, v := range a.Data {
		if math.Float32bits(v) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}
