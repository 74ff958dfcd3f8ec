// Package data generates deterministic synthetic datasets standing in for
// ImageNet: seeded Gaussian inputs with labels produced by a fixed random
// linear teacher, so that (a) every engine sees bit-identical inputs, and
// (b) the task is learnable, letting integration tests assert that
// training actually reduces loss.
package data

import (
	"fmt"
	"math"

	"dnnparallel/internal/nn"
	"dnnparallel/internal/tensor"
)

// Dataset is an in-memory labeled sample set.
type Dataset struct {
	X       *tensor.Tensor4 // N samples, NCHW
	Labels  []int
	Classes int
}

// N returns the number of samples.
func (d *Dataset) N() int { return d.X.N }

// Synthetic builds n samples of the given shape with classes teacher
// labels. Deterministic in seed.
func Synthetic(n int, shape nn.Shape, classes int, seed int64) *Dataset {
	if n < 1 || classes < 2 {
		panic(fmt.Sprintf("data: need n ≥ 1 and classes ≥ 2, got %d, %d", n, classes))
	}
	x := tensor.Random4(n, shape.C, shape.H, shape.W, 1, seed)
	d := shape.Size()
	teacher := tensor.Random(classes, d, 1/math.Sqrt(float64(d)), seed+1)
	labels := make([]int, n)
	flat := x.AsMatrix() // d × n
	scores := tensor.MatMul(teacher, flat)
	for j := 0; j < n; j++ {
		best := math.Inf(-1)
		for i := 0; i < classes; i++ {
			if v := scores.At(i, j); v > best {
				best = v
				labels[j] = i
			}
		}
	}
	return &Dataset{X: x, Labels: labels, Classes: classes}
}

// Batch returns minibatch number step of size b, wrapping around the
// dataset cyclically — the deterministic sample order every engine and the
// serial reference share.
func (d *Dataset) Batch(step, b int) (*tensor.Tensor4, []int) {
	if b < 1 || b > d.N() {
		panic(fmt.Sprintf("data: batch size %d with %d samples", b, d.N()))
	}
	start := (step * b) % d.N()
	x := tensor.NewTensor4(b, d.X.C, d.X.H, d.X.W)
	labels := make([]int, b)
	for i := 0; i < b; i++ {
		src := (start + i) % d.N()
		x.SetSamples(i, d.X.SliceSamples(src, src+1))
		labels[i] = d.Labels[src]
	}
	return x, labels
}
