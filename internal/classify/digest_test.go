package classify

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/trace"
)

// outcomeDigest is the SHA-256 of every profile of out in FuncID order: its
// type, predictive values, dense range, WT statistics (floats by their bits)
// and links.
func outcomeDigest(out *Outcome) string {
	h := sha256.New()
	var buf []byte
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	for _, p := range out.Profiles {
		buf = append(buf[:0], byte(p.Type))
		u64(uint64(len(p.Values)))
		for _, v := range p.Values {
			u64(uint64(v))
		}
		u64(uint64(p.RangeLo))
		u64(uint64(p.RangeHi))
		u64(math.Float64bits(p.MedianWT))
		u64(math.Float64bits(p.StdWT))
		u64(uint64(p.WTCount))
		u64(uint64(len(p.Links)))
		for _, l := range p.Links {
			u64(uint64(uint32(l.Cand))<<32 | uint64(uint32(l.Lag)))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// scenarioWindow generates an 8-day trace of the named library scenario
// whose disruptive phases start on day 4, all of it the categorized window.
func scenarioWindow(tb testing.TB, name string, functions int, seed int64) *trace.Trace {
	tb.Helper()
	const days, simStart = 8, 4 * 1440
	gcfg := trace.DefaultGeneratorConfig(functions, days, seed)
	sc, err := trace.NamedScenario(name, simStart, days*1440)
	if err != nil {
		tb.Fatal(err)
	}
	sc.Seed = seed
	gcfg.Scenario = sc.Normalize()
	tr, err := trace.Generate(gcfg)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// TestCategorizeOutcomeDigests pins Categorize's profiles byte for byte on a
// 12-day stationary training window and two library scenarios, under the
// full configuration and both ablations. Where TestCategorizeMatchesOracle
// holds the categorizer to a reference it shares nothing with, this holds it
// to its own earlier self at a larger scale than the oracle can afford. The
// digests were recorded from the merge lag scan, the comparison sort and the
// sorted span union; a mismatch is a behaviour change, not a re-record.
func TestCategorizeOutcomeDigests(t *testing.T) {
	windows := []struct {
		name string
		tr   func(testing.TB) *trace.Trace
		want [4]string // {full, w/o Corr, w/o Forgetting, both}
	}{
		{"stationary-12d", func(tb testing.TB) *trace.Trace { return trainingTrace(tb, 600, 14, 12) }, [4]string{
			"9e5dc7e0038f5f4d48e94825daefdaee46c807f132afc33b06dc165c888ecf36",
			"e1e9659b16cb2fd3d2b8281eca633a71144a32cdce3c087a534713fe49447cc8",
			"e6e435db017bd1f28d9ac914182066cc256f3211bf5994e6b61f4c92211554ed",
			"0f303ad273e082110b3b4d922e43ee6066855615a2e57fe204517ed2d247ff11",
		}},
		{"drift", func(tb testing.TB) *trace.Trace { return scenarioWindow(tb, "drift", 400, 3) }, [4]string{
			"37e8d9f3065101e57508dd012846586cdc4c7cb2e550502e2eb266e96206c043",
			"f26450e0a64067a69ffae712a4ab1b2ac618b736d1bb8bc4ddec40ff8feeec52",
			"c9d3f80ad01a93025b78441a2e4b1a47f10f4e0cf40af28cc19ad5f43aa82731",
			"a2c76042fd1fb3995b50af7b1c77377fbf3618f67af6c9d08758a9ba4dac3003",
		}},
		{"deploy-wave", func(tb testing.TB) *trace.Trace { return scenarioWindow(tb, "deploy-wave", 400, 5) }, [4]string{
			"877ecba5c7cb81fa6fa219754bf78f481742258f8ee3a2e917b5214b2f54990a",
			"ea4048b476b5a30f9ee19c49697eb83194055af475831123562a5a6944bf055d",
			"ee6b9a45bc4507ba648439f5b67a1366187a3a04c036e2001a95ef02ffb3d471",
			"2a11f9865835a31bf28956288d62c8d004ae37e23da87ab1c41b11bd4321a247",
		}},
	}
	for _, win := range windows {
		t.Run(win.name, func(t *testing.T) {
			tr := win.tr(t)
			cfg := DefaultConfig()
			for i, want := range win.want {
				noCorr, noForget := i&1 != 0, i&2 != 0
				out := Categorize(tr, cfg, noCorr, noForget)
				if got := outcomeDigest(out); got != want {
					t.Errorf("noCorr=%v noForget=%v: digest %s, want %s", noCorr, noForget, got, want)
				}
				// A digest only pins the link miner and the strategy
				// scoring if the window reaches them.
				if counts := typeCounts(out); i == 0 && (counts[TypeCorrelated] == 0 || counts[TypePossible] == 0) {
					t.Errorf("window too tame: %d correlated, %d possible profiles",
						counts[TypeCorrelated], counts[TypePossible])
				}
			}
		})
	}
}
