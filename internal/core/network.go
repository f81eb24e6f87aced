package core

import (
	"math/rand"
	"time"

	"streambrain/internal/backend"
	"streambrain/internal/data"
	"streambrain/internal/metrics"
	"streambrain/internal/tensor"
)

// EpochHook observes training after each unsupervised epoch; the in-situ
// visualization adaptors (internal/viz) attach here, playing the role of the
// ParaView Catalyst co-processing trigger ("the adaptor triggers
// co-processing at end of each epoch", paper §III-B).
type EpochHook func(epoch int, layer *HiddenLayer)

// Network is the three-layer StreamBrain topology the paper uses throughout:
// input → hidden BCPNN layer → classification layer (§III: "we primarily
// focus on three-layer networks").
type Network struct {
	be     backend.Backend
	Hidden *HiddenLayer
	Out    Readout
	p      Params
	rng    *rand.Rand

	// tracesSeeded records that the hidden input marginals were seeded from
	// data (done once, lazily, on the first unsupervised epoch).
	tracesSeeded bool

	// threshold is the calibrated binary decision threshold on the class-1
	// score (0.5 until CalibrateThreshold runs). Generative BCPNN readouts
	// sum log-odds over correlated hidden units, which preserves ranking
	// (AUC) but systematically offsets the posterior scale, so argmax at
	// 0.5 can collapse to the majority class; calibrating the cut on
	// training data is the standard remedy and uses no test information.
	threshold float64

	// TrainTime accumulates wall-clock training duration; the Fig. 3/4
	// harnesses report it alongside accuracy.
	TrainTime time.Duration

	// partialAct is scratch reused across PartialFit micro-batches so the
	// streaming ingest loop stays allocation-free at steady state.
	partialAct *tensor.Matrix
}

// NewNetwork builds a network for one-hot input of fi hypercolumns × mi
// units and the given class count, with a pure-BCPNN readout.
func NewNetwork(be backend.Backend, fi, mi, classes int, p Params) *Network {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	hidden := NewHiddenLayer(be, fi, mi, p, rng)
	out := NewClassifier(be, hidden.Units(), classes, p, rng)
	return &Network{be: be, Hidden: hidden, Out: out, p: p, rng: rng, threshold: 0.5}
}

// SetReadout swaps the classification head (the hybrid BCPNN+SGD mode
// installs an sgd.Softmax here).
func (n *Network) SetReadout(r Readout) { n.Out = r }

// Params returns the network's hyperparameters.
func (n *Network) Params() Params { return n.p }

// Backend returns the compute backend in use.
func (n *Network) Backend() backend.Backend { return n.be }

// TrainUnsupervised runs the feature-learning phase: `epochs` passes of
// batched trace updates, with one structural-plasticity round at the end of
// every epoch ("usually it is updated once per epoch", §III-B), then the
// epoch hooks.
func (n *Network) TrainUnsupervised(train *data.Encoded, epochs int, hooks ...EpochHook) {
	start := time.Now()
	if !n.tracesSeeded && epochs > 0 {
		sample := train.Len()
		if sample > 8192 {
			sample = 8192
		}
		n.Hidden.InitTracesFromData(train.Idx[:sample])
		n.tracesSeeded = true
	}
	for e := 0; e < epochs; e++ {
		// Anneal the symmetry-breaking support noise: full at the first
		// epoch, zero at the last.
		anneal := 0.0
		if epochs > 1 {
			anneal = 1 - float64(e)/float64(epochs-1)
		}
		n.Hidden.SetNoise(n.p.SupportNoise * anneal)
		train.Batches(n.p.BatchSize, n.rng, func(idx [][]int32, _ []int) {
			n.Hidden.TrainBatch(idx)
		})
		n.structuralStep(e, epochs)
		n.TrainTime += time.Since(start)
		start = time.Now()
		for _, hook := range hooks {
			hook(e, n.Hidden)
		}
	}
	n.Hidden.SetNoise(0)
}

// structuralStep runs the end-of-epoch structural update of unsupervised
// epoch e (0-based) of epochs. The sparse regime replaces the MI exchange
// with the usage-driven prune/regrow schedule: K anneals toward the target
// sparsity, shrinking the active block set the kernels walk. Regrowth draws
// from the layer RNG.
func (n *Network) structuralStep(e, epochs int) {
	if n.p.TargetSparsity > 0 {
		n.Hidden.PruneRegrow(n.sparsityTargetK(e+1, epochs), n.p.SwapsPerEpoch)
		return
	}
	n.Hidden.StructuralUpdate()
}

// sparsityTargetK returns the per-HCU active-connection count the prune/
// regrow schedule assigns after `epoch` of `totalEpochs` unsupervised epochs
// (epoch is 1-based): a linear anneal from the initial K = round(RF·Fi) down
// to round((1−TargetSparsity)·Fi), reached at SparsityEpochs (or the final
// epoch when SparsityEpochs is 0) and held there. Never below 1 — an HCU with
// an empty receptive field would be pure bias.
func (n *Network) sparsityTargetK(epoch, totalEpochs int) int {
	fi := n.Hidden.Fi
	k0 := receptiveK(n.p.ReceptiveField, fi)
	kEnd := receptiveK(1-n.p.TargetSparsity, fi)
	if kEnd < 1 {
		kEnd = 1
	}
	span := n.p.SparsityEpochs
	if span <= 0 {
		span = totalEpochs
	}
	if epoch >= span {
		return kEnd
	}
	frac := float64(epoch) / float64(span)
	k := k0 + int(float64(kEnd-k0)*frac)
	if k < 1 {
		k = 1
	}
	return k
}

// TrainSupervised runs the classification phase on the frozen hidden code.
func (n *Network) TrainSupervised(train *data.Encoded, epochs int) {
	start := time.Now()
	act := tensor.NewMatrix(n.p.BatchSize, n.Hidden.Units())
	for e := 0; e < epochs; e++ {
		train.Batches(n.p.BatchSize, n.rng, func(idx [][]int32, labels []int) {
			view := act
			if len(idx) != act.Rows {
				view = tensor.NewMatrix(len(idx), n.Hidden.Units())
			}
			n.Hidden.Forward(idx, view)
			n.Out.TrainBatch(view, labels)
		})
	}
	n.TrainTime += time.Since(start)
}

// Train runs both phases with the epoch counts from Params, then calibrates
// the binary decision threshold on the training set.
func (n *Network) Train(train *data.Encoded, hooks ...EpochHook) {
	n.TrainUnsupervised(train, n.p.UnsupervisedEpochs, hooks...)
	n.TrainSupervised(train, n.p.SupervisedEpochs)
	n.CalibrateThreshold(train)
}

// CalibrateThreshold sweeps the class-1 score cut that maximizes training
// accuracy (binary problems only; multiclass keeps argmax). At most 20000
// training samples are scored.
func (n *Network) CalibrateThreshold(train *data.Encoded) {
	if n.Out.Classes() != 2 || train.Len() == 0 {
		return
	}
	sample := train
	if train.Len() > 20000 {
		rows := n.rng.Perm(train.Len())[:20000]
		sample = train.Subset(rows)
	}
	_, scores := n.Predict(sample)
	n.threshold = metrics.BestAccuracyThreshold(scores, sample.Y)
}

// Threshold returns the current binary decision threshold.
func (n *Network) Threshold() float64 { return n.threshold }

// Predict classifies every sample: predicted class plus, for binary
// problems, the signal probability used for ROC/AUC (class 1 = signal).
func (n *Network) Predict(ds *data.Encoded) (pred []int, signalScore []float64) {
	pred = make([]int, ds.Len())
	signalScore = make([]float64, ds.Len())
	n.PredictInto(ds, pred, signalScore, nil)
	return pred, signalScore
}

// predictChunk is the forward-pass tile: samples are scored through
// chunk-row activation/probability matrices so a large Predict never
// materializes the full hidden code.
const predictChunk = 512

// PredictScratch holds the forward-pass working set for PredictInto, reused
// across calls so the serving hot path (DESIGN.md §12) scores batches without
// allocating. The zero value is ready; buffers grow on first use and stick.
type PredictScratch struct {
	actData   []float64
	probsData []float64
	act       tensor.Matrix
	probs     tensor.Matrix
}

// views sizes the scratch matrices as rows×(units, classes) windows over the
// backing slices, allocating only when a previous call's capacity is too
// small.
func (sc *PredictScratch) views(rows, units, classes int) (act, probs *tensor.Matrix) {
	if cap(sc.actData) < rows*units {
		sc.actData = make([]float64, rows*units)
	}
	if cap(sc.probsData) < rows*classes {
		sc.probsData = make([]float64, rows*classes)
	}
	sc.act = tensor.Matrix{Rows: rows, Cols: units, Data: sc.actData[:rows*units]}
	sc.probs = tensor.Matrix{Rows: rows, Cols: classes, Data: sc.probsData[:rows*classes]}
	return &sc.act, &sc.probs
}

// PredictInto is Predict writing into caller-owned slices (both must be
// ds.Len() long) with an optional reusable scratch — the allocation-free form
// the pooled serve path runs on. A nil sc uses a private scratch for this
// call.
func (n *Network) PredictInto(ds *data.Encoded, pred []int, signalScore []float64, sc *PredictScratch) {
	if sc == nil {
		sc = new(PredictScratch)
	}
	classes := n.Out.Classes()
	units := n.Hidden.Units()
	for lo := 0; lo < ds.Len(); lo += predictChunk {
		hi := lo + predictChunk
		if hi > ds.Len() {
			hi = ds.Len()
		}
		aview, pview := sc.views(hi-lo, units, classes)
		n.Hidden.Forward(ds.Idx[lo:hi], aview)
		n.Out.Scores(aview, pview)
		for s := 0; s < hi-lo; s++ {
			row := pview.Row(s)
			if classes == 2 {
				signalScore[lo+s] = row[1]
				if row[1] >= n.threshold {
					pred[lo+s] = 1
				} else {
					pred[lo+s] = 0
				}
			} else {
				pred[lo+s] = tensor.ArgMaxRow(row)
			}
		}
	}
}

// Evaluate returns test accuracy and (for binary problems) AUC — the two
// numbers every experiment in the paper reports.
func (n *Network) Evaluate(ds *data.Encoded) (acc, auc float64) {
	pred, score := n.Predict(ds)
	acc = metrics.Accuracy(pred, ds.Y)
	if n.Out.Classes() == 2 {
		auc = metrics.AUC(score, ds.Y)
	}
	return acc, auc
}
