package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"streambrain/internal/backend"
	"streambrain/internal/tensor"
)

// kernelsOnly hides a backend's native LayerStep, so a layer built on it
// steps through backend.StepperOf's composed sequence over the same kernels.
type kernelsOnly struct{ backend.Backend }

// firstBitDiff returns the first index at which a and b differ in any bit,
// or -1 when they are bit-identical.
func firstBitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// sameLearnedState reports where two BCPNN networks' hidden W and Bias or
// readout W and Bias first differ in any bit.
func sameLearnedState(a, b *Network) error {
	ca, cb := a.Out.(*Classifier), b.Out.(*Classifier)
	for _, f := range []struct {
		name string
		x, y []float64
	}{
		{"hidden W", a.Hidden.W.Data, b.Hidden.W.Data},
		{"hidden Bias", a.Hidden.Bias, b.Hidden.Bias},
		{"readout W", ca.W.Data, cb.W.Data},
		{"readout Bias", ca.Bias, cb.Bias},
	} {
		if i := firstBitDiff(f.x, f.y); i >= 0 {
			return fmt.Errorf("%s differs at %d", f.name, i)
		}
	}
	return nil
}

// TestPartialFitOneTrainingPath: every backend trains through one LayerStep
// call, so PartialFit over the same micro-batches leaves bit-identical state
// whether a backend steps natively or through the composed sequence over its
// kernels — the readout included, which learns from the step's in-pass
// activations on every backend. Parallel and fused, which share kernels,
// must agree with each other too.
func TestPartialFitOneTrainingPath(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	stream := synthEncoded(rng, 320, 8, 4, []int{1, 5}, 0.1)
	run := func(be backend.Backend) *Network {
		p := smallParams()
		p.Seed = 50
		n := NewNetwork(be, 8, 4, 2, p)
		for lo := 0; lo < stream.Len(); lo += 40 {
			n.PartialFit(stream.Idx[lo:lo+40], stream.Y[lo:lo+40])
		}
		return n
	}
	for _, name := range backend.Names() {
		native := run(backend.MustNew(name, 2))
		composed := run(kernelsOnly{backend.MustNew(name, 2)})
		if err := sameLearnedState(native, composed); err != nil {
			t.Errorf("%s: native step vs composed kernels: %v", name, err)
		}
	}
	if err := sameLearnedState(run(backend.MustNew("parallel", 2)),
		run(backend.MustNew("fused", 2))); err != nil {
		t.Errorf("parallel vs fused: %v", err)
	}
}

// TestForwardGatherMatchesDenseSequence: Forward gathers through the block
// index in every regime. On a dense-masked model the silent W blocks the
// per-epoch structural updates re-zeroed are exact +0, so the gather equals
// the dense OneHotMatMul→AddBias→SoftmaxGroups sequence bit for bit on every
// backend.
func TestForwardGatherMatchesDenseSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	train := synthEncoded(rng, 600, 8, 4, []int{1, 5}, 0.1)
	idx := train.Idx[:64]
	for _, name := range backend.Names() {
		be := backend.MustNew(name, 2)
		p := smallParams()
		p.Seed = 51
		n := NewNetwork(be, 8, 4, 2, p)
		swaps := 0
		n.TrainUnsupervised(train, 2, func(_ int, l *HiddenLayer) { swaps += len(l.LastSwaps()) })
		if swaps == 0 {
			t.Fatalf("%s: structural updates swapped nothing", name)
		}
		l := n.Hidden
		got := tensor.NewMatrix(len(idx), l.Units())
		l.Forward(idx, got)
		want := tensor.NewMatrix(len(idx), l.Units())
		be.OneHotMatMul(want, idx, l.W)
		be.AddBias(want, l.Bias)
		be.SoftmaxGroups(want, l.H, l.M, p.Temperature)
		if i := firstBitDiff(got.Data, want.Data); i >= 0 {
			t.Errorf("%s: block-index forward differs from the dense sequence at %d", name, i)
		}
	}
}
