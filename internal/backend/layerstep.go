package backend

import "streambrain/internal/tensor"

// This file defines the whole-layer step (DESIGN.md §14) — the Go analogue
// of StreamBrain's `full_cuda` backend, which ships entire layer updates to
// the device instead of issuing the six-plus kernel calls the composed
// training step needs. A backend that can run the complete
// support→softmax→trace→homeostasis→weight-update sequence as one pass
// advertises it by implementing LayerStepper; StepperOf gives every other
// kernel set the same interface by running the composed sequence through its
// own kernels. The trainer therefore has one training path, and the composed
// sequence stays the contract: a native LayerStep must compute the same
// function (see the fused≡composed property tests for the tolerance).

// LayerGeom fixes the modular geometry of one BCPNN hidden layer for a fused
// step: Fi input hypercolumns of Mi units each feeding H hidden HCUs of M
// MCUs each. The receptive-field mask, when present, gates Fi×H hypercolumn
// blocks exactly as in Kernels.UpdateWeights.
type LayerGeom struct {
	Fi, Mi int
	H, M   int
}

// Inputs returns the total input unit count (Fi·Mi).
func (g LayerGeom) Inputs() int { return g.Fi * g.Mi }

// Units returns the total hidden unit count (H·M).
func (g LayerGeom) Units() int { return g.H * g.M }

// LayerHyper carries the per-step schedule of a layer step: the scalar
// hyperparameters of the composed sequence plus the batch-varying vectors.
//
// Kbi is the homeostatic bias gain (length H·M). LayerStep applies the
// floored-bias homeostasis rule in-pass — Kbi is read AND rewritten — because
// the composed order (trace update → homeostasis → bias refresh) is only
// reproducible if the gain update happens between the Cj update and the bias
// recompute.
//
// Noise, when non-nil, is the pre-generated support noise of this batch
// (row-major batch×H·M, added to the support after the bias and before the
// softmax). A fused step cannot draw it, because worker sharding would make
// draw order — and therefore training — nondeterministic; the caller draws
// in row-major order and every step adds, so all backends see the same
// values. Nil means no support noise (prediction-noise-free batches, the
// steady state).
type LayerHyper[T tensor.Float] struct {
	Taupdt       float64 // trace EMA rate
	Taubdt       float64 // homeostatic gain relaxation rate
	PMinFraction float64 // starvation threshold numerator (pmin = PMinFraction/M)
	Temperature  float64 // softmax temperature
	Eps          float64 // probability floor for the log-odds parameters
	Kbi          []T     // homeostatic gain, updated in-pass
	Noise        []T     // optional pre-drawn support noise, batch×(H·M) row-major

	// Blocks, when non-nil, selects the block-sparse compute regime
	// (DESIGN.md §15): the step gathers, decays, accumulates and re-derives
	// only the active (input HCU × hidden HCU) blocks of the index. Silent
	// joint-trace blocks are frozen (not decayed) and silent weight blocks
	// are not written — the caller guarantees they hold zeros by running a
	// full masked refresh whenever the mask changes. Blocks must agree with
	// geom and, when both are given, with mask.
	Blocks *tensor.BlockIndex
}

// LayerStepper is the whole-layer training step. LayerStep
// performs one complete unsupervised BCPNN batch step:
//
//	act  = softmax_groups(onehot(idx)·w + bias [+ noise])   (forward)
//	ci   = lerp(ci,  mean_s onehot(idx))                    (input trace)
//	cj   = lerp(cj,  colmeans(act))                         (unit trace)
//	cij  = lerp(cij, mean_s onehot(idx) ⊗ act)              (joint trace)
//	kbi  = homeostasis(kbi, cj)                             (gain update)
//	w    = log-odds(ci, cj, cij) gated by mask              (in-pass refresh)
//	bias = kbi · log(max(cj, eps))                          (in-pass refresh)
//
// equivalent to the composed kernel sequence but in as few passes as the
// implementation can manage: the fused CPU backend walks Cij and W once in
// cache-sized row blocks, the offload simulators charge one kernel launch for
// the whole step. act is an output (the trainer's scratch activation buffer,
// batch×H·M); all other buffers are read-write model state.
//
// Implementations may keep internal scratch — LayerStep, like every Kernels
// method, is never called concurrently on one backend value.
type LayerStepper[T tensor.Float] interface {
	LayerStep(idx [][]int32, act *tensor.Dense[T], ci, cj []T, cij, w *tensor.Dense[T],
		bias []T, mask []bool, geom LayerGeom, hyper LayerHyper[T])
}

// StepperOf returns the whole-layer step of k: k itself when it implements
// LayerStepper, otherwise an adapter that issues the composed kernel sequence
// through k's own methods — so kernel-level wrappers (tracers, the offload
// simulators' ledgers) still see every call. Each adapter owns its scratch;
// like k, it must not be stepped concurrently.
func StepperOf[T tensor.Float](k Kernels[T]) LayerStepper[T] {
	if st, ok := k.(LayerStepper[T]); ok {
		return st
	}
	return &kernelStepper[T]{k: k}
}

// kernelStepper is LayerStep as the composed kernel sequence: the dense
// kernels, or their block-sparse counterparts when hyper.Blocks is set.
type kernelStepper[T tensor.Float] struct {
	k       Kernels[T]
	meanAct []T // batch-mean activation (units)
}

// LayerStep implements LayerStepper.
func (s *kernelStepper[T]) LayerStep(idx [][]int32, act *tensor.Dense[T], ci, cj []T,
	cij, w *tensor.Dense[T], bias []T, mask []bool, geom LayerGeom, hyper LayerHyper[T]) {
	checkLayerStep(idx, act, ci, cj, cij, w, bias, mask, geom, hyper)
	k, bi, t := s.k, hyper.Blocks, hyper.Taupdt
	if bi != nil {
		k.OneHotMatMulSparse(act, idx, w, bi)
	} else {
		k.OneHotMatMul(act, idx, w)
	}
	k.AddBias(act, bias)
	if hyper.Noise != nil {
		tensor.Add(act.Data, hyper.Noise)
	}
	k.SoftmaxGroups(act, geom.H, geom.M, hyper.Temperature)
	k.OneHotMeanLerp(ci, idx, t)
	s.meanAct = growScratch(s.meanAct, geom.Units())
	tensor.ColMeans(s.meanAct, act)
	k.Lerp(cj, s.meanAct, t)
	homeostasisStep(hyper.Kbi, cj, geom.M, hyper.Taubdt, hyper.PMinFraction, hyper.Eps)
	if bi != nil {
		// Silent W blocks keep the zeros the last masked refresh wrote.
		k.OneHotOuterLerpSparse(cij, idx, act, t, bi)
		k.UpdateWeightsSparse(w, ci, cj, cij, bi, hyper.Eps)
	} else {
		k.OneHotOuterLerp(cij, idx, act, t)
		k.UpdateWeights(w, ci, cj, cij, mask, geom.Fi, geom.Mi, geom.H, geom.M, hyper.Eps)
	}
	k.UpdateBias(bias, hyper.Kbi, cj, hyper.Eps)
}

// homeostasisStep is the floored-bias gain update (DESIGN.md §3) every
// LayerStep applies in-pass: starved units (cj below PMinFraction/M) have
// their gain driven toward the fair-share bias level, healthy units relax
// to 1.
func homeostasisStep[T tensor.Float](kbi, cj []T, m int, taubdt, pminFraction, eps float64) {
	fair := logT(1 / T(m))
	pmin := T(pminFraction) / T(m)
	tb := T(taubdt)
	epsT := T(eps)
	for j, v := range cj {
		target := T(1)
		if v < pmin {
			target = fair / logT(max(v, epsT))
		}
		kbi[j] = (1-tb)*kbi[j] + tb*target
	}
}
