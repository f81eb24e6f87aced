package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"streambrain/internal/backend"
	"streambrain/internal/core"
	"streambrain/internal/data"
	"streambrain/internal/higgs"
	"streambrain/internal/sgd"
)

// rawSplit is the generated input: balanced raw events split 3:1, before
// any encoding. The benchmark's timings start from here.
type rawSplit struct{ train, test *data.Dataset }

func generate(w *workload, seed int64) rawSplit {
	ds := higgs.Generate(w.events, 0.5, seed)
	rng := rand.New(rand.NewSource(seed + 7))
	train, test := ds.Balanced(w.events/4, rng).Split(0.75, rng)
	return rawSplit{train, test}
}

// params keeps DefaultParams' model seed: --seed varies the events, not the
// initial weights. Test AUC at this scale depends strongly on the initial
// weights (one seed converges, others stall), so varying them would measure
// that sensitivity instead of the code's speed.
func (w *workload) params() core.Params {
	p := core.DefaultParams()
	p.MCUs = w.mcus
	p.UnsupervisedEpochs, p.SupervisedEpochs = w.unsup, w.sup
	p.TargetSparsity, p.SparseCompute = w.sparsity, w.sparseCompute
	return p
}

// newNetwork is the timed set-up: backend construction, NewNetwork and the
// readout. A non-nil rec wraps the backend and the readout in tracers.
func (w *workload) newNetwork(fi int, rec *recorder) (*core.Network, error) {
	be, err := backend.New(w.backend, 0)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		be = wrapBackend(be, rec)
	}
	p := w.params()
	net := core.NewNetwork(be, fi, bins, 2, p)
	if w.hybrid {
		rng := rand.New(rand.NewSource(p.Seed + 1))
		net.SetReadout(sgd.NewSoftmax(net.Hidden.Units(), 2, sgd.DefaultConfig(), rng))
	}
	if rec != nil {
		net.SetReadout(&tracedReadout{Readout: net.Out, rec: rec})
	}
	return net, nil
}

// timeSetup times one set-up from a collected heap.
func (w *workload) timeSetup(fi int) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	_, err := w.newNetwork(fi, nil)
	return time.Since(start), err
}

// trainRun is one pass of the pipeline.
type trainRun struct {
	setup    time.Duration
	tta      time.Duration // encoder fit+transform through Evaluate
	acc, auc float64
	net      *core.Network
	enc      *data.Encoder
	swaps    int
	live     uint64 // live heap bytes at the end of the run
	spans    []span // traced runs only
}

// train runs raw events → encoder → TrainUnsupervised → TrainSupervised →
// CalibrateThreshold → Evaluate on a fresh network. With a recorder, every
// phase is a span and the backend and readout calls inside it are its
// children.
func (w *workload) train(raw rawSplit, rec *recorder) (*trainRun, error) {
	phase := func(name string, fn func()) {
		if rec == nil {
			fn()
			return
		}
		s := rec.begin(name, false)
		fn()
		rec.end(s, 0)
	}
	runtime.GC()
	r := &trainRun{}
	start := time.Now()
	net, err := w.newNetwork(raw.train.Features(), rec)
	if err != nil {
		return nil, err
	}
	r.setup = time.Since(start)
	if rec != nil {
		rec.take() // set-up is its own metric, not part of time-to-AUC
	}

	start = time.Now()
	var train, test *data.Encoded
	phase(spanEncodeFit, func() { r.enc = data.FitEncoder(raw.train, bins) })
	phase(spanEncodeApply, func() { train, test = r.enc.Transform(raw.train), r.enc.Transform(raw.test) })
	countSwaps := func(_ int, l *core.HiddenLayer) { r.swaps += len(l.LastSwaps()) }
	phase(spanUnsup, func() { net.TrainUnsupervised(train, w.unsup, countSwaps) })
	phase(spanSup, func() { net.TrainSupervised(train, w.sup) })
	phase(spanCalibrate, func() { net.CalibrateThreshold(train) })
	phase(spanEval, func() { r.acc, r.auc = net.Evaluate(test) })
	r.tta = time.Since(start)
	// A collection while the encoded splits and the trained network are
	// live measures the pipeline's whole working set at the same point of
	// every run, outside the timed region.
	runtime.GC()
	r.live = liveHeap()
	runtime.KeepAlive(train)
	runtime.KeepAlive(test)

	if rec != nil {
		r.spans = rec.take()
	}
	r.net = net
	if !(r.auc > 0.5 && r.auc <= 1) || math.IsNaN(r.acc) {
		return r, fmt.Errorf("test AUC %v (accuracy %v): need a finite AUC in (0.5, 1]", r.auc, r.acc)
	}
	return r, nil
}

// sameAnswer fails unless two runs at one seed gave bit-identical results.
func sameAnswer(what string, a, b *trainRun) error {
	if math.Float64bits(a.auc) != math.Float64bits(b.auc) || math.Float64bits(a.acc) != math.Float64bits(b.acc) {
		return fmt.Errorf("%s: AUC %v / accuracy %v, but %v / %v on the first run",
			what, b.auc, b.acc, a.auc, a.acc)
	}
	return nil
}

// traceReport is the per-layer view of one traced training run.
type traceReport struct {
	phase, self map[string]time.Duration // by phase span name
	readoutSelf time.Duration
	groups      map[string]kernelStat
	kernels     map[string]kernelStat
	rows        int // encoded rows
}

func analyse(spans []span, rows int) traceReport {
	self := selfTimes(spans)
	t := traceReport{phase: map[string]time.Duration{}, self: map[string]time.Duration{}, rows: rows}
	for i, s := range spans {
		if s.Kernel {
			continue
		}
		t.phase[s.Name] += s.End - s.Start
		t.self[s.Name] += self[i]
		if s.Name == spanReadoutTrain || s.Name == spanReadoutScore {
			t.readoutSelf += self[i]
		}
	}
	t.groups, t.kernels = kernelStats(spans, self)
	return t
}

// sameWork fails unless two traced runs at one seed made the same kernel
// calls over the same computed bytes.
func sameWork(a, b traceReport) error {
	for k, x := range a.kernels {
		if y := b.kernels[k]; x.Calls != y.Calls || x.Bytes != y.Bytes {
			return fmt.Errorf("kernel %s: %d calls / %d bytes, then %d / %d at the same seed",
				k, x.Calls, x.Bytes, y.Calls, y.Bytes)
		}
	}
	if len(a.kernels) != len(b.kernels) {
		return fmt.Errorf("traced runs called %d and %d distinct kernels", len(a.kernels), len(b.kernels))
	}
	return nil
}

// encode returns the time spent in the encoder.
func (t traceReport) encode() time.Duration { return t.phase[spanEncodeFit] + t.phase[spanEncodeApply] }

// attributed is the sum of the phases that make up time-to-AUC.
func (t traceReport) attributed() time.Duration {
	return t.encode() + t.phase[spanUnsup] + t.phase[spanSup] + t.phase[spanCalibrate] + t.phase[spanEval]
}
