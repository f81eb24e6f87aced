package core

import (
	"math/rand"
	"testing"
	"time"

	"streambrain/internal/backend"
	"streambrain/internal/mpi"
)

func TestDistributedTrainerLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	p := smallParams()
	p.UnsupervisedEpochs = 4
	p.SupervisedEpochs = 4
	p.Taupdt = 0.05
	train := synthEncoded(rng, 1600, 8, 4, []int{1, 5}, 0.1)
	test := synthEncoded(rng, 400, 8, 4, []int{1, 5}, 0.1)
	dt := NewDistributedTrainer(4, "naive", 1, 8, 4, 2, p, train)
	net, err := dt.Train(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	acc, _ := net.Evaluate(test)
	if acc < 0.75 {
		t.Fatalf("distributed accuracy %.3f", acc)
	}
}

// TestDistributedReplicasStayInSync: after training, every rank must hold
// identical traces and masks — the property that makes the "return rank 0"
// contract sound.
func TestDistributedReplicasStayInSync(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := smallParams()
	p.Taupdt = 0.05
	train := synthEncoded(rng, 800, 8, 4, []int{2}, 0.1)
	dt := NewDistributedTrainer(3, "naive", 1, 8, 4, 2, p, train)
	if _, err := dt.Train(3, 2); err != nil {
		t.Fatal(err)
	}
	nets := dt.Networks()
	ref := nets[0].Hidden
	for r := 1; r < len(nets); r++ {
		l := nets[r].Hidden
		if d := l.Cij.MaxAbsDiff(ref.Cij); d > 1e-12 {
			t.Fatalf("rank %d Cij differs by %g", r, d)
		}
		for i := range ref.Mask {
			if l.Mask[i] != ref.Mask[i] {
				t.Fatalf("rank %d mask diverged at %d", r, i)
			}
		}
		for j := range ref.Cj {
			if l.Cj[j] != ref.Cj[j] {
				t.Fatalf("rank %d Cj diverged at %d", r, j)
			}
		}
	}
}

// TestDistributedShardingBalanced: round-robin sharding must split the data
// evenly (±1) across ranks.
func TestDistributedShardingBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	p := smallParams()
	train := synthEncoded(rng, 1001, 6, 4, []int{0}, 0.1)
	dt := NewDistributedTrainer(4, "naive", 1, 6, 4, 2, p, train)
	total := 0
	for r, shard := range dt.shards {
		total += shard.Len()
		if shard.Len() < 250 || shard.Len() > 251 {
			t.Fatalf("rank %d shard size %d", r, shard.Len())
		}
	}
	if total != 1001 {
		t.Fatalf("shards cover %d of 1001", total)
	}
}

// TestDistributedMatchesSingleRankShape: more ranks must not destroy
// learning (accuracy within a few points of the 1-rank run on the same
// budget).
func TestDistributedMatchesSingleRankShape(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := smallParams()
	p.Taupdt = 0.05
	train := synthEncoded(rng, 1200, 8, 4, []int{1, 5}, 0.1)
	test := synthEncoded(rng, 400, 8, 4, []int{1, 5}, 0.1)
	accFor := func(ranks int) float64 {
		dt := NewDistributedTrainer(ranks, "naive", 1, 8, 4, 2, p, train)
		net, err := dt.Train(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		acc, _ := net.Evaluate(test)
		return acc
	}
	a1 := accFor(1)
	a4 := accFor(4)
	if a4 < a1-0.10 {
		t.Fatalf("4-rank accuracy %.3f collapsed vs 1-rank %.3f", a4, a1)
	}
}

// TestDistributedEmptyShardDoesNotDeadlock: a degenerate world with fewer
// rows than ranks leaves some shards empty; the merge schedule is driven by
// the agreed batch count, so empty-shard ranks must still join every
// collective instead of desynchronizing the sequence (which deadlocked the
// chan fabric and timed out the tcp one).
func TestDistributedEmptyShardDoesNotDeadlock(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	p := smallParams()
	train := synthEncoded(rng, 2, 8, 4, []int{1}, 0.1) // 2 rows, 3 ranks
	dt := NewDistributedTrainer(3, "naive", 1, 8, 4, 2, p, train)
	done := make(chan error, 1)
	go func() {
		_, err := dt.Train(2, 1)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("degenerate world errored: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("degenerate world deadlocked")
	}
}

// TestDistributedTCPMatchesChanBitExact: the same replicas trained over the
// TCP loopback fabric must land on bit-identical traces as over the chan
// fabric — the wire format round-trips float64 exactly, and the collective
// trees are transport-independent. This is the known-answer test that the
// transport refactor changed plumbing, not math.
func TestDistributedTCPMatchesChanBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	p := smallParams()
	p.Taupdt = 0.05
	train := synthEncoded(rng, 800, 8, 4, []int{1, 5}, 0.1)
	const ranks = 3
	trainOn := func(useTCP bool) *Network {
		dt := NewDistributedTrainer(ranks, "naive", 1, 8, 4, 2, p, train)
		if useTCP {
			w, err := mpi.NewTCPWorld(ranks, mpi.TCPOptions{Timeout: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { w.Close() })
			dt.World = w
		}
		net, err := dt.Train(2, 2)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	chanNet := trainOn(false)
	tcpNet := trainOn(true)
	if d := tcpNet.Hidden.Cij.MaxAbsDiff(chanNet.Hidden.Cij); d != 0 {
		t.Fatalf("tcp Cij differs from chan by %g (want bit-exact)", d)
	}
	for j := range chanNet.Hidden.Cj {
		if tcpNet.Hidden.Cj[j] != chanNet.Hidden.Cj[j] {
			t.Fatalf("tcp Cj diverged at %d", j)
		}
	}
}

// TestDistributedFollowsTargetSparsity: under TargetSparsity the ranks run
// the same prune/regrow schedule as TrainUnsupervised, so a 2-rank world on
// an odd row count (uneven shards, so the ranks' RNG streams diverge) ends
// at the single-rank K with identical masks and joint traces on every rank.
func TestDistributedFollowsTargetSparsity(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	p := smallParams()
	p.ReceptiveField = 0.75
	p.TargetSparsity = 0.75
	const fi, mi, epochs = 8, 4, 3
	train := synthEncoded(rng, 801, fi, mi, []int{1, 5}, 0.1)

	single := NewNetwork(backend.MustNew("naive", 1), fi, mi, 2, p)
	single.TrainUnsupervised(train, epochs)
	wantK := single.Hidden.K
	if wantK != 2 {
		t.Fatalf("single-rank K = %d, want 2 (the schedule's target)", wantK)
	}

	dt := NewDistributedTrainer(2, "naive", 1, fi, mi, 2, p, train)
	if _, err := dt.Train(epochs, 0); err != nil {
		t.Fatal(err)
	}
	nets := dt.Networks()
	ref := nets[0].Hidden
	for r, n := range nets {
		l := n.Hidden
		if l.K != wantK {
			t.Fatalf("rank %d K = %d, want single-rank %d", r, l.K, wantK)
		}
		if k, ok := uniformK(l.Mask, l.Fi, l.H); !ok || k != wantK {
			t.Fatalf("rank %d mask holds K=%d (uniform %v), want %d per HCU", r, k, ok, wantK)
		}
		for i := range ref.Mask {
			if l.Mask[i] != ref.Mask[i] {
				t.Fatalf("rank %d mask diverged at %d", r, i)
			}
		}
		for i, v := range ref.Cij.Data {
			if l.Cij.Data[i] != v {
				t.Fatalf("rank %d Cij diverged at %d", r, i)
			}
		}
	}
}
