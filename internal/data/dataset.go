// Package data provides the training-data plane: deterministic
// synthetic datasets standing in for MNIST/CIFAR-10/ImageNet, the I/O
// cost models of the two storage backends the paper compares (LMDB
// with its >64-reader contention cliff vs file-per-image reading on a
// parallel filesystem), and the parallel data-reader design of
// Figure 3 (one reader thread and one distributed queue per solver).
package data

import (
	"fmt"
	"math/rand"
	"sync"

	"scaffe/internal/layers"
)

// Sample is one training example.
type Sample struct {
	Image []float32
	Label int
}

// Dataset is an in-memory random-access dataset.
type Dataset interface {
	// Name identifies the dataset.
	Name() string
	// Len returns the number of samples.
	Len() int
	// At returns sample i (deterministic).
	At(i int) Sample
	// Shape returns the per-sample image shape.
	Shape() layers.Shape
	// Classes returns the number of label classes.
	Classes() int
}

// Filler is an optional Dataset extension for allocation-free batch
// assembly: a dataset that can write a sample's image directly into a
// caller-owned buffer. BatchTensorInto uses it when available, which
// keeps the training hot path free of per-iteration allocations.
type Filler interface {
	// ReadInto writes sample i's image into img (which must hold at
	// least Shape().Elems() values) and returns the label. It is safe
	// for concurrent use.
	ReadInto(i int, img []float32) int
}

// Synthetic is a deterministic, learnable dataset: each class has a
// fixed random template and samples are template + noise. Linear and
// small convolutional models can fit it, which lets the real-compute
// tests verify that training actually reduces loss.
type Synthetic struct {
	name      string
	shape     layers.Shape
	classes   int
	n         int
	seed      int64
	templates [][]float32
	noise     float32

	// mu guards rng, a cached generator re-seeded per sample so reads
	// don't allocate a fresh rand.Rand each call. Re-seeding resets the
	// source to the exact state a fresh generator would have, so the
	// sample stream is identical to the per-call construction.
	mu  sync.Mutex
	rng *rand.Rand
}

// NewSynthetic builds a synthetic dataset of n samples.
func NewSynthetic(name string, shape layers.Shape, classes, n int, seed int64) *Synthetic {
	rng := rand.New(rand.NewSource(seed))
	d := &Synthetic{name: name, shape: shape, classes: classes, n: n, seed: seed, noise: 0.3}
	for c := 0; c < classes; c++ {
		t := make([]float32, shape.Elems())
		for i := range t {
			t[i] = rng.Float32()*2 - 1
		}
		d.templates = append(d.templates, t)
	}
	return d
}

// Name implements Dataset.
func (d *Synthetic) Name() string { return d.name }

// Len implements Dataset.
func (d *Synthetic) Len() int { return d.n }

// Shape implements Dataset.
func (d *Synthetic) Shape() layers.Shape { return d.shape }

// Classes implements Dataset.
func (d *Synthetic) Classes() int { return d.classes }

// At implements Dataset. Sample i is derived from (seed, i) only, so
// every rank sees the same dataset.
func (d *Synthetic) At(i int) Sample {
	img := make([]float32, d.shape.Elems())
	label := d.ReadInto(i, img)
	return Sample{Image: img, Label: label}
}

// ReadInto implements Filler.
func (d *Synthetic) ReadInto(i int, img []float32) int {
	if i < 0 || i >= d.n {
		panic(fmt.Sprintf("data: sample %d out of range [0,%d)", i, d.n))
	}
	img = img[:d.shape.Elems()]
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.rng == nil {
		d.rng = rand.New(rand.NewSource(0))
	}
	d.rng.Seed(d.seed*1_000_003 + int64(i))
	label := int(d.rng.Int31n(int32(d.classes)))
	tpl := d.templates[label]
	for j := range img {
		img[j] = tpl[j] + float32((d.rng.Float32()*2-1)*d.noise)
	}
	return label
}

// SyntheticMNIST returns a 1×28×28, 10-class dataset.
func SyntheticMNIST(n int, seed int64) *Synthetic {
	return NewSynthetic("synthetic-mnist", layers.Shape{C: 1, H: 28, W: 28}, 10, n, seed)
}

// SyntheticCIFAR10 returns a 3×32×32, 10-class dataset.
func SyntheticCIFAR10(n int, seed int64) *Synthetic {
	return NewSynthetic("synthetic-cifar10", layers.Shape{C: 3, H: 32, W: 32}, 10, n, seed)
}

// SyntheticImageNet returns a 3×224×224, 1000-class dataset (geometry
// only; used by timing-mode runs).
func SyntheticImageNet(n int, seed int64) *Synthetic {
	return NewSynthetic("synthetic-imagenet", layers.Shape{C: 3, H: 224, W: 224}, 1000, n, seed)
}

// BatchTensor assembles samples [start, start+batch) of ds (wrapping
// modulo length) into a flat NCHW tensor and label slice.
func BatchTensor(ds Dataset, start, batch int) ([]float32, []int) {
	img := make([]float32, batch*ds.Shape().Elems())
	labels := make([]int, batch)
	BatchTensorInto(ds, start, batch, img, labels)
	return img, labels
}

// BatchTensorInto assembles samples [start, start+batch) of ds
// (wrapping modulo length) into caller-owned buffers: img must hold
// batch*Shape().Elems() values and labels batch entries. Datasets
// implementing Filler are read without any allocation.
func BatchTensorInto(ds Dataset, start, batch int, img []float32, labels []int) {
	elems := ds.Shape().Elems()
	if f, ok := ds.(Filler); ok {
		for b := 0; b < batch; b++ {
			labels[b] = f.ReadInto((start+b)%ds.Len(), img[b*elems:(b+1)*elems])
		}
		return
	}
	for b := 0; b < batch; b++ {
		s := ds.At((start + b) % ds.Len())
		copy(img[b*elems:(b+1)*elems], s.Image)
		labels[b] = s.Label
	}
}
