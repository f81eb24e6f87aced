// Package core implements the paper's primary contribution: the rate-based
// BCPNN (Bayesian Confidence Propagation Neural Network) learning model as
// realized by the StreamBrain framework.
//
// The model (paper §II, following Ravichandran et al. 2020):
//
//   - The hidden layer is a set of H hypercolumn units (HCUs), each holding
//     M minicolumn units (MCUs). Activity within an HCU is a probability
//     mass over its MCUs (softmax of the support).
//   - Learning is local and Hebbian-Bayesian: exponential traces Ci, Cj, Cij
//     estimate input/unit/joint activation probabilities, and the weights
//     are the log-odds w_ij = log(pij /(pi·pj)); the bias is kbi·log(pj).
//     No gradients are backpropagated anywhere.
//   - Structural plasticity learns *where to look*: each HCU has a binary
//     receptive-field mask over input hypercolumns holding exactly
//     K = round(RF·Fi) active entries; once per epoch the lowest-mutual-
//     information active connection is exchanged for the highest-MI silent
//     one ("exchange active low-entropy for silent high-entropy
//     connections", paper §III-B).
//   - Classification is a supervised BCPNN output layer (one HCU whose MCUs
//     are the classes, trained with the teacher signal as its activity), or
//     — in the paper's hybrid mode — an SGD softmax readout on the frozen
//     hidden code.
package core

import "fmt"

// Precision selects the element width of the compute path (DESIGN.md §9).
// Traces — the learning accumulators — and the unsupervised training step
// that updates them always stay float64, exactly as StreamBrain's reduced-
// precision explorations keep accumulation wide; the precision choice
// governs forward passes (supervised phase, evaluation, serving) and the
// derived parameters (weights, biases) they read.
type Precision string

const (
	// Float64 is the default full-precision path.
	Float64 Precision = "float64"
	// Float32 runs forward passes on the float32 kernel set: weights and
	// biases are down-cast after the trace updates and supports, softmax
	// and scores are computed at half width (and, on amd64, twice the SIMD
	// lanes). It reproduces the paper's reduced-precision training scenario
	// (bfloat16/posit, Svedin et al. 2021) in CI-runnable form.
	Float32 Precision = "float32"
)

// Valid reports whether p names a supported precision ("" = Float64).
func (p Precision) Valid() bool {
	return p == "" || p == Float64 || p == Float32
}

// Is32 reports whether the reduced-precision compute path is selected.
func (p Precision) Is32() bool { return p == Float32 }

// String implements fmt.Stringer, normalizing "" to "float64".
func (p Precision) String() string {
	if p == "" {
		return string(Float64)
	}
	return string(p)
}

// Params collects every BCPNN hyperparameter. The paper stresses (§IV) that
// BCPNN exposes more use-case-dependent hyperparameters than backprop
// networks; the hypersearch package exists to tune these.
type Params struct {
	// HCUs is the number of hidden hypercolumn units (paper Fig. 3 sweeps
	// 1–8).
	HCUs int
	// MCUs is the number of minicolumn units per HCU (paper Fig. 3 sweeps
	// 30/300/3000).
	MCUs int
	// ReceptiveField is the fraction of input hypercolumns each HCU may
	// connect to (paper Fig. 4 sweeps 0.05–0.95; Fig. 3 fixes 0.30).
	ReceptiveField float64
	// Taupdt is the probability-trace learning rate dt/τp.
	Taupdt float64
	// Taubdt is the adaptation rate of the homeostatic bias gain.
	Taubdt float64
	// PMinFraction sets the starvation threshold for the bias floor as a
	// fraction of the fair share 1/MCUs (the homeostasis rule of
	// DESIGN.md §3, applied inside every LayerStep).
	PMinFraction float64
	// Temperature is the hidden softmax temperature; lower is sharper.
	Temperature float64
	// Eps floors probabilities inside logarithms.
	Eps float64
	// SwapsPerEpoch bounds how many mask swaps each HCU may perform per
	// structural-plasticity update.
	SwapsPerEpoch int
	// SwapMargin is the relative MI advantage a silent connection needs to
	// displace an active one (hysteresis against mask thrash).
	SwapMargin float64
	// InitNoise scales the random perturbation of the initial joint traces
	// that breaks MCU symmetry.
	InitNoise float64
	// SupportNoise is the standard deviation of the Gaussian noise added to
	// the hidden support during unsupervised training, annealed linearly to
	// zero across the epochs. Competitive layers need it to escape the
	// uniform-activation fixed point (all MCUs equally active is a
	// near-stable state of the trace dynamics); prediction never uses it.
	SupportNoise float64
	// BatchSize is the mini-batch size of both training phases.
	BatchSize int
	// UnsupervisedEpochs and SupervisedEpochs split the two training phases
	// (hidden-layer feature learning, then classifier fitting).
	UnsupervisedEpochs int
	SupervisedEpochs   int
	// Seed drives every random choice (init, shuffling, mask layout).
	Seed int64
	// Precision selects the forward-compute element width ("" = float64).
	// See the Precision type for what moves to float32 and what stays wide.
	Precision Precision

	// SparseCompute turns the receptive-field mask into block-sparse
	// training (DESIGN.md §15): joint-trace updates and weight re-derivation
	// walk a compressed per-HCU block index instead of the dense buffers
	// (Forward gathers through it in both regimes), and silent Cij blocks
	// are frozen rather than decayed.
	// The dense default keeps StreamBrain's semantics (silent traces still
	// decay); sparse is the measured-speed regime the sparsity experiments
	// and the sparse perf suite exercise.
	SparseCompute bool
	// TargetSparsity is the final fraction of silenced input hypercolumns
	// per HCU the prune/regrow schedule anneals toward (0 keeps the initial
	// ReceptiveField fixed and the MI-swap plasticity). The schedule shrinks
	// K from round(ReceptiveField·Fi) to round((1−TargetSparsity)·Fi) across
	// SparsityEpochs. It is independent of SparseCompute: with it the pruned
	// blocks are also skipped by the kernels (the speed lever); without it
	// the same structural trajectory runs on the dense-masked kernels — the
	// twin the E10 equivalence bound compares against.
	TargetSparsity float64
	// SparsityEpochs is the number of unsupervised epochs over which the
	// prune/regrow schedule reaches TargetSparsity (0 = all unsupervised
	// epochs).
	SparsityEpochs int
}

// DefaultParams returns the hyperparameter set used as the starting point of
// all experiments; the values follow the StreamBrain defaults adapted to the
// quantile one-hot Higgs encoding.
func DefaultParams() Params {
	return Params{
		HCUs:               1,
		MCUs:               300,
		ReceptiveField:     0.30,
		Taupdt:             0.012,
		Taubdt:             0.05,
		PMinFraction:       0.25,
		Temperature:        1.0,
		Eps:                1e-9,
		SwapsPerEpoch:      2,
		SwapMargin:         0.05,
		InitNoise:          0.01,
		SupportNoise:       0.5,
		BatchSize:          128,
		UnsupervisedEpochs: 6,
		SupervisedEpochs:   6,
		Seed:               1,
	}
}

// Validate reports the first invalid hyperparameter.
func (p Params) Validate() error {
	switch {
	case p.HCUs < 1:
		return fmt.Errorf("core: HCUs = %d, need >= 1", p.HCUs)
	case p.MCUs < 2:
		return fmt.Errorf("core: MCUs = %d, need >= 2", p.MCUs)
	case p.ReceptiveField < 0 || p.ReceptiveField > 1:
		return fmt.Errorf("core: ReceptiveField = %v, need [0,1]", p.ReceptiveField)
	case p.Taupdt <= 0 || p.Taupdt > 1:
		return fmt.Errorf("core: Taupdt = %v, need (0,1]", p.Taupdt)
	case p.Taubdt <= 0 || p.Taubdt > 1:
		return fmt.Errorf("core: Taubdt = %v, need (0,1]", p.Taubdt)
	case p.Temperature <= 0:
		return fmt.Errorf("core: Temperature = %v, need > 0", p.Temperature)
	case p.Eps <= 0:
		return fmt.Errorf("core: Eps = %v, need > 0", p.Eps)
	case p.BatchSize < 1:
		return fmt.Errorf("core: BatchSize = %d, need >= 1", p.BatchSize)
	case p.UnsupervisedEpochs < 0 || p.SupervisedEpochs < 0:
		return fmt.Errorf("core: negative epoch count")
	case !p.Precision.Valid():
		return fmt.Errorf("core: Precision = %q, need %q or %q", p.Precision, Float64, Float32)
	case p.TargetSparsity < 0 || p.TargetSparsity >= 1:
		return fmt.Errorf("core: TargetSparsity = %v, need [0,1)", p.TargetSparsity)
	case p.SparsityEpochs < 0:
		return fmt.Errorf("core: SparsityEpochs = %d, need >= 0", p.SparsityEpochs)
	}
	return nil
}
