package core

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"strings"
	"testing"

	"streambrain/internal/backend"
	"streambrain/internal/sgd"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	p := smallParams()
	p.Seed = 30
	train := synthEncoded(rng, 600, 8, 4, []int{1, 5}, 0.1)
	test := synthEncoded(rng, 150, 8, 4, []int{1, 5}, 0.1)
	n := NewNetwork(backend.MustNew("naive", 0), 8, 4, 2, p)
	n.Train(train)
	predBefore, scoreBefore := n.Predict(test)

	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, backend.MustNew("parallel", 2))
	if err != nil {
		t.Fatal(err)
	}
	if !statesEqual(n, loaded, 1e-12) {
		t.Fatal("derived parameters differ after round trip")
	}
	if loaded.Threshold() != n.Threshold() {
		t.Fatalf("threshold %v != %v", loaded.Threshold(), n.Threshold())
	}
	predAfter, scoreAfter := loaded.Predict(test)
	for i := range predBefore {
		if predBefore[i] != predAfter[i] {
			t.Fatalf("prediction changed at %d after reload", i)
		}
		if d := scoreBefore[i] - scoreAfter[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("score changed at %d: %v vs %v", i, scoreBefore[i], scoreAfter[i])
		}
	}
}

func TestSaveLoadHybridRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := smallParams()
	p.Seed = 31
	train := synthEncoded(rng, 600, 8, 4, []int{1, 5}, 0.1)
	test := synthEncoded(rng, 150, 8, 4, []int{1, 5}, 0.1)
	n := NewNetwork(backend.MustNew("naive", 0), 8, 4, 2, p)
	n.SetReadout(sgd.NewSoftmax(n.Hidden.Units(), 2, sgd.DefaultConfig(), rng))
	n.Train(train)
	predBefore, scoreBefore := n.Predict(test)

	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, backend.MustNew("parallel", 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := loaded.Out.(*sgd.Softmax); !ok {
		t.Fatalf("loaded readout is %T, want *sgd.Softmax", loaded.Out)
	}
	if loaded.Threshold() != n.Threshold() {
		t.Fatalf("threshold %v != %v", loaded.Threshold(), n.Threshold())
	}
	predAfter, scoreAfter := loaded.Predict(test)
	for i := range predBefore {
		if predBefore[i] != predAfter[i] {
			t.Fatalf("prediction changed at %d after reload", i)
		}
		if d := scoreBefore[i] - scoreAfter[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("score changed at %d: %v vs %v", i, scoreBefore[i], scoreAfter[i])
		}
	}
	// Hybrid resume: momentum buffers round-trip, so more supervised epochs
	// must not crash or destroy the model.
	accBefore, _ := loaded.Evaluate(test)
	loaded.TrainSupervised(train, 2)
	loaded.CalibrateThreshold(train)
	accAfter, _ := loaded.Evaluate(test)
	if accAfter < accBefore-0.1 {
		t.Fatalf("resumed hybrid training degraded accuracy %.3f -> %.3f", accBefore, accAfter)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not a gob"), backend.MustNew("naive", 0)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadRejectsCorruptGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	p := smallParams()
	train := synthEncoded(rng, 200, 6, 4, []int{0}, 0.1)
	n := NewNetwork(backend.MustNew("naive", 0), 6, 4, 2, p)
	n.Train(train)
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt: re-encode with a truncated hidden trace by decoding into the
	// state, mutating, and re-encoding is overkill — instead check that a
	// state saved from one geometry fails to load when Params disagree.
	// Simplest corruption: flip bytes mid-stream.
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0xFF
	if _, err := Load(bytes.NewBuffer(raw), backend.MustNew("naive", 0)); err == nil {
		t.Log("byte-flip survived gob decode; acceptable only if geometry still validated")
	}
}

func TestResumeTrainingAfterLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	p := smallParams()
	p.Seed = 33
	train := synthEncoded(rng, 800, 8, 4, []int{1, 5}, 0.1)
	test := synthEncoded(rng, 200, 8, 4, []int{1, 5}, 0.1)
	n := NewNetwork(backend.MustNew("naive", 0), 8, 4, 2, p)
	n.TrainUnsupervised(train, 2)
	n.TrainSupervised(train, 2)
	n.CalibrateThreshold(train)

	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := Load(&buf, backend.MustNew("naive", 0))
	if err != nil {
		t.Fatal(err)
	}
	accBefore, _ := resumed.Evaluate(test)
	// Resume: more supervised epochs must not crash and should not destroy
	// the model.
	resumed.TrainSupervised(train, 3)
	resumed.CalibrateThreshold(train)
	accAfter, _ := resumed.Evaluate(test)
	if accAfter < accBefore-0.1 {
		t.Fatalf("resumed training degraded accuracy %.3f -> %.3f", accBefore, accAfter)
	}
}

// craftState saves a small trained network, lets mutate edit the decoded
// snapshot, and returns the re-encoded bytes — a hostile file that is still
// well-formed gob.
func craftState(t *testing.T, mutate func(st *networkState)) *bytes.Buffer {
	t.Helper()
	rng := rand.New(rand.NewSource(34))
	n := NewNetwork(backend.MustNew("naive", 0), 6, 4, 2, smallParams())
	n.Train(synthEncoded(rng, 200, 6, 4, []int{0}, 0.1))
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var st networkState
	if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
		t.Fatal(err)
	}
	mutate(&st)
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&st); err != nil {
		t.Fatal(err)
	}
	return &out
}

func wantInconsistentState(t *testing.T, in *bytes.Buffer) {
	t.Helper()
	_, err := Load(in, backend.MustNew("naive", 0))
	if err == nil || !strings.Contains(err.Error(), "inconsistent state geometry") {
		t.Fatalf("Load error %v, want inconsistent state geometry", err)
	}
}

// TestLoadRejectsShortKbi: a homeostatic gain vector shorter than H·M must
// not load with the missing gains silently left at their defaults.
func TestLoadRejectsShortKbi(t *testing.T) {
	wantInconsistentState(t, craftState(t, func(st *networkState) {
		st.HiddenKbi = st.HiddenKbi[:len(st.HiddenKbi)-1]
	}))
}

// TestLoadRejectsUnevenMask: every HCU column of the mask must hold the same
// K active inputs. Enabling one extra input of the last HCU leaves HCU 0
// intact, which is the column K used to be read from.
func TestLoadRejectsUnevenMask(t *testing.T) {
	wantInconsistentState(t, craftState(t, func(st *networkState) {
		h := st.Params.HCUs
		for fi := 0; fi < st.Fi; fi++ {
			if !st.Mask[fi*h+h-1] {
				st.Mask[fi*h+h-1] = true
				return
			}
		}
		t.Fatal("last HCU has no silent input to enable")
	}))
}
