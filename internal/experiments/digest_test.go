package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"repro/internal/trace"
)

// digestTrace feeds every generated byte of tr into h: the slot count, each
// function's metadata and its event series, in FuncID order, and the
// local -> global mapping when tr is a shard.
func digestTrace(h hash.Hash, tr *trace.Trace, global []trace.FuncID) {
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	str := func(s string) {
		put(int64(len(s)))
		h.Write([]byte(s))
	}
	put(int64(tr.Slots))
	put(int64(len(tr.Functions)))
	for i, f := range tr.Functions {
		put(int64(f.ID))
		str(f.Name)
		str(f.App)
		str(f.User)
		put(int64(f.Trigger))
		put(int64(len(tr.Series[i])))
		for _, e := range tr.Series[i] {
			put(int64(e.Slot))
			put(int64(e.Count))
		}
	}
	put(int64(len(global)))
	for _, g := range global {
		put(int64(g))
	}
}

func digest(tr *trace.Trace, global []trace.FuncID) string {
	h := sha256.New()
	digestTrace(h, tr, global)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratedWorkloadDigests pins the generator's output byte for byte:
// any change to an RNG stream, a synthesizer's draw order or the split moves
// a digest. The workloads cover the stationary mix (Poisson on both sides of
// its λ = 30 normal-approximation switch, Pareto rates, exponential gaps),
// the sparse large-n mix, the drift and churn scenarios' per-function
// scenario RNG, and one shard of the streamed source. The digests were
// recorded from Go 1 math/rand's stream; a mismatch is a behaviour change,
// not a re-record.
func TestGeneratedWorkloadDigests(t *testing.T) {
	scenario := func(name string) Settings {
		s := QuickSettings()
		s.Scenario.Name = name
		return s
	}
	// At seed 4 one stationary function's Pareto rate exceeds 30, so its
	// every slot takes Poisson's NormFloat64 branch.
	seed4 := QuickSettings()
	seed4.Seed = 4
	cases := []struct {
		name       string
		s          Settings
		train, sim string
	}{
		{"quick", QuickSettings(),
			"0e26919ac594a2edc7d398ccdb39f3c35a212faa6b8457e7dbd833b8b2b1f0bd",
			"78f276e82a339910850c62d5cd40249e39ec2f6c3cba518739dafa6285eac65d"},
		{"quick-seed-4", seed4,
			"46fbdab348886e597d7d435e66e787b2cc4dbd6eff4608b871717a72dbe65c86",
			"043ed7fe24e6df5b89ee733872675b267a944e3dfb58c786fe1cadcdbef10f3f"},
		{"sparse-600", SparseSettings(600, 1),
			"ed8d8b73fd2f5ae26ee9fe0b17b095e9681421db69026fe7bf000dbd9a3f3170",
			"9417a85f6110312357e58918a1720968a229b8ad9cf126adb7c016d68d815544"},
		{"drift", scenario("drift"),
			"61052c6f52d45e499a04893d7100ee112376329b2836e36b66afa287a44c0fb0",
			"5a8bc37da613d2b7675c9b0c97210779ca0aaf1a342f82658ef3e1db4a88c9a2"},
		{"churn", scenario("churn"),
			"ea8963eb7b6bc9b4a56724b6feb04d54803c83d8c9b0dd2fb873aacd5970b3ba",
			"4a5120525efbbd2fcf0da29af3454b9f327b044421d5837644b00b1d98c5b79a"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, train, simTr, err := BuildWorkload(c.s)
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(train, nil); got != c.train {
				t.Errorf("train digest = %s, want %s", got, c.train)
			}
			if got := digest(simTr, nil); got != c.sim {
				t.Errorf("sim digest = %s, want %s", got, c.sim)
			}
		})
	}
	t.Run("stream-shard", func(t *testing.T) {
		src, err := StreamSource(SparseSettings(600, 2), 4)
		if err != nil {
			t.Fatal(err)
		}
		train, simTr, err := src.Shard(1)
		if err != nil {
			t.Fatal(err)
		}
		const (
			wantTrain = "ea6347be5725b810c03dcd830a91a471571fbba504c4d87ef1d8c19fe27c81fa"
			wantSim   = "26d5a0a57d27134f466c5cffdd9c5a0fbdd90a4019e44fc93e40ac77f5697371"
		)
		if got := digest(train.Trace, train.Global); got != wantTrain {
			t.Errorf("train digest = %s, want %s", got, wantTrain)
		}
		if got := digest(simTr.Trace, simTr.Global); got != wantSim {
			t.Errorf("sim digest = %s, want %s", got, wantSim)
		}
	})
}
