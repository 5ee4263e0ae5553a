package main

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestArchRules holds the tree to the architecture rules DESIGN.md states —
// one mechanism per job, references in tests, deterministic output, no code
// nothing reaches. Each row of archRules names a rule, the commit that set
// it, and checks it two ways: the grep the rule was first written as
// (pattern and file scope verbatim, so no row is looser than its grep), and
// a go/types predicate over the type-checked tree, which also sees what text
// cannot — renamed imports, type-switch cases, method values, declarations
// however they are formatted. A finding prints as
// file:line: [rule, since commit] reason.
//
// Every row has a planted violation under testdata/archrules/<id>[.variant],
// a miniature tree whose packages import the real ones. Each fixture must
// trip its own row and no other; a ".blind" fixture is one the row's grep
// cannot see, so only its predicate may catch it.
func TestArchRules(t *testing.T) {
	l, real, fixtures := loadArchTrees(t)
	for _, r := range archRules {
		t.Run(r.name, func(t *testing.T) {
			if r.since == "" {
				t.Error("the row names no commit that set it")
			}
			for _, f := range r.run(l, real) {
				t.Error(f)
			}
		})
	}
	t.Run("fixtures", func(t *testing.T) {
		seen := map[string]bool{}
		for _, fx := range fixtures {
			id, variant, _ := strings.Cut(path.Base(fx.root), ".")
			seen[id] = true
			tripped := map[string][]finding{}
			for _, r := range archRules {
				if fs := r.run(l, fx); len(fs) > 0 {
					tripped[r.id] = fs
				}
			}
			own := tripped[id]
			if len(own) == 0 {
				t.Errorf("%s: row %q does not trip", fx.root, id)
			}
			for other, fs := range tripped {
				if other != id {
					t.Errorf("%s: trips row %q too: %s", fx.root, other, fs[0])
				}
			}
			byGrep, byTypes := 0, 0
			for _, f := range own {
				if f.byGrep {
					byGrep++
				} else {
					byTypes++
				}
			}
			switch {
			case variant == "blind" && (byGrep > 0 || byTypes == 0):
				t.Errorf("%s: %d grep and %d go/types findings; a blind fixture is the predicate's alone", fx.root, byGrep, byTypes)
			case variant == "" && byGrep == 0 && len(rowByID(id).greps) > 0:
				t.Errorf("%s: the row's grep misses the planted violation", fx.root)
			}
			// Unused and T.Unused trip; policy's methods, reached only
			// through sim.Policy, do not. The whole chain trips at once.
			wantDead := map[string][]string{
				"deadness":       {"dead.Unused ", "dead.T.Unused "},
				"deadness.chain": {"chain.Head ", "chain.Middle ", "chain.Tail "},
			}[path.Base(fx.root)]
			if wantDead != nil {
				ok := len(own) == len(wantDead)
				for _, w := range wantDead {
					ok = ok && slices.ContainsFunc(own, func(f finding) bool { return strings.Contains(f.msg, w) })
				}
				if !ok {
					t.Errorf("%s: want exactly %q, got %v", fx.root, wantDead, own)
				}
			}
		}
		for _, r := range archRules {
			if !seen[r.id] {
				t.Errorf("row %q has no fixture under testdata/archrules", r.id)
			}
		}
	})
}

func rowByID(id string) *archRule {
	for _, r := range archRules {
		if r.id == id {
			return r
		}
	}
	return &archRule{}
}

// archRule is one row of the table.
type archRule struct {
	id    string // fixture directory name under testdata/archrules
	name  string
	since string // commit that set the rule
	why   string // reason printed with a grep finding
	greps []archGrep
	check func(*archLoader, *archTree) []finding
}

// archGrep is the grep a rule was first written as, kept verbatim.
type archGrep struct {
	pattern string   // as the retired CI step spelled it
	basic   bool     // grep without -E: parentheses are literal
	word    bool     // grep -w
	goOnly  bool     // --include='*.go'
	under   []string // paths scanned, relative to the tree root; nil is the whole tree
	tests   bool     // _test.go files are scanned too
	except  []string // path prefixes not scanned
}

type finding struct {
	pos    string // file:line relative to the module root
	msg    string
	byGrep bool
	rule   *archRule
}

func (f finding) String() string {
	return fmt.Sprintf("%s: [%s, since %s] %s", f.pos, f.rule.name, f.rule.since, f.msg)
}

func (r *archRule) run(l *archLoader, tr *archTree) []finding {
	var out []finding
	for _, g := range r.greps {
		for _, f := range g.run(tr) {
			f.msg = r.why + ": " + f.msg
			out = append(out, f)
		}
	}
	if r.check != nil {
		out = append(out, r.check(l, tr)...)
	}
	for i := range out {
		out[i].rule = r
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

var archRules = []*archRule{{
	id:    "durable",
	name:  "One durable-file layer",
	since: "7797203",
	// DESIGN.md "Durable files": checksums, temp files and renames live in
	// internal/durable only (the fault-injecting seam delegates to
	// durable.OS); anything else is a second copy of the mechanism.
	why: "durable-file mechanism used outside internal/durable",
	greps: []archGrep{{pattern: `hash/crc32|os\.CreateTemp|os\.Rename`, goOnly: true,
		except: []string{"internal/durable/"}}},
	check: func(_ *archLoader, tr *archTree) (out []finding) {
		for _, f := range tr.goFiles(nil, "internal/durable/") {
			for _, imp := range f.imports("hash/crc32") {
				out = append(out, tr.at(imp, "imports hash/crc32 outside internal/durable"))
			}
			for _, u := range f.uses {
				if isPkgObj(u.obj, "os", "CreateTemp", "Rename") {
					out = append(out, tr.at(u.id, "uses os."+u.obj.Name()+" outside internal/durable"))
				}
			}
		}
		return out
	},
}, {
	id:    "engines",
	name:  "Engines are types, not options",
	since: "7203e5e",
	// DESIGN.md "Engines and their references": core.DenseReference is
	// named in non-test Go only where it is defined and in the equivalence
	// harness, and the retired engine switches and progress hook stay gone
	// from every package that ships.
	why: "reference engine outside tests and the equivalence harness, or a retired engine switch",
	greps: []archGrep{
		{pattern: `NewDenseReference`, basic: true, goOnly: true,
			except: []string{"internal/core/dense.go", "internal/eqv/"}},
		{pattern: `DenseScan|MapAgenda|NewFixedKeepAliveReference` + `|ProgressEvery`, tests: true,
			under: []string{"internal", "cmd", "spes", "examples"}},
	},
	check: func(_ *archLoader, tr *archTree) (out []finding) {
		for _, f := range tr.goFiles(nil, "internal/core/dense.go", "internal/eqv/") {
			for _, u := range f.uses {
				if isPkgObj(u.obj, "repro/internal/core", "NewDenseReference", "DenseReference") {
					out = append(out, tr.at(u.id, "names core."+u.obj.Name()+" outside tests and internal/eqv"))
				}
			}
		}
		return out
	},
}, {
	id:    "measuring",
	name:  "One measuring system, one resume record",
	since: "d99bc1a",
	// DESIGN.md "Measuring": benchmark/ and scripts/benchpair.sh answer "did
	// this move anything". The resume record the name counts is gone too:
	// nothing records a sweep's progress, and a killed sweep re-runs every
	// shard. Go sources and the two front-door docs do not name what was
	// deleted. Names only, so the grep is the whole check.
	why: "a retired measuring or resume mechanism is named again",
	greps: []archGrep{
		{pattern: `benchjson|benchgate|SweepManifest|AttachManifest|sweep\.journal`, goOnly: true, tests: true},
		{pattern: `benchjson|benchgate|SweepManifest|AttachManifest|sweep\.journal`, under: []string{"README.md", "DESIGN.md"}},
	},
}, {
	id:    "frontdoor",
	name:  "One front door",
	since: "4ef9e77",
	// DESIGN.md "Front door": -functions/-days/-seed/-scenario/-sparse are
	// declared by experiments.Settings.RegisterFlags and nowhere under cmd,
	// and the duplicates the door replaced — scenariobench's own engine
	// check, the streamed Sweep constructor, the unused KS family — stay out
	// of non-test Go.
	why: "a workload flag declared outside experiments.Settings.RegisterFlags, or a duplicate the front door replaced",
	greps: []archGrep{
		{pattern: `flag\.[A-Za-z0-9]+\("(functions|days|seed|scenario|sparse)"`, tests: true, under: []string{"cmd"}},
		{pattern: `checkEngines|NewStreamedSweep|KSTest`, goOnly: true},
	},
	check: func(_ *archLoader, tr *archTree) (out []finding) {
		for _, f := range tr.goFiles([]string{"cmd"}) {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calledFunc(f.info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
					return true
				}
				for _, arg := range call.Args {
					if tv := f.info.Types[arg]; tv.Value != nil && tv.Value.Kind() == constant.String {
						switch name := constant.StringVal(tv.Value); name {
						case "functions", "days", "seed", "scenario", "sparse":
							out = append(out, tr.at(call, fmt.Sprintf("declares workload flag -%s outside experiments.Settings.RegisterFlags", name)))
						}
					}
				}
				return true
			})
		}
		return out
	},
}, {
	id:    "shardsched",
	name:  "One shard scheduler",
	since: "30cc102",
	// DESIGN.md "Capacity-coupled policies": FaaSCache and LCS run the
	// unsharded loop over the whole (reassembled) population, so
	// runShardedSrc is the only function that schedules shards and
	// sim.Driver has one step method. Names only.
	why: "a piece of the lockstep capacity engine is back",
	greps: []archGrep{{
		pattern: `CapacityShard|ClockCoupled|NewCapacityShard|PeekVictim|EvictVictim|StepBegin|FinishStep|capacityArbiter|runCapacityShards`,
		goOnly:  true, tests: true, under: []string{"internal", "cmd", "spes", "examples"},
	}},
}, {
	id:    "parallelfor",
	name:  "One parallel-for",
	since: "b29dd0a",
	// DESIGN.md "Concurrency budget": trace.FanOut is the one scheduler
	// (generation, categorization, RunAll, the shard engine, the ingest's
	// shard stage), so it is the only non-test code that waits on a
	// sync.WaitGroup, and trace.Overlap, beside it, the one two-stage
	// pipeline (the engine's chunks, the CSV pass's blocks), so a FanOut of
	// the constant two items anywhere else is a hand-built round loop.
	why: "a second parallel-for is back (use trace.FanOut)",
	greps: []archGrep{{pattern: `sync\.WaitGroup`, basic: true, goOnly: true,
		under: []string{"internal", "cmd", "spes", "examples"}, except: []string{"internal/trace/fanout.go"}}},
	check: func(_ *archLoader, tr *archTree) (out []finding) {
		for _, f := range tr.goFiles([]string{"internal", "cmd", "spes", "examples"}, "internal/trace/fanout.go") {
			for _, u := range f.uses {
				if isPkgObj(u.obj, "sync", "WaitGroup") {
					out = append(out, tr.at(u.id, "uses sync.WaitGroup outside trace.FanOut"))
				}
			}
			ast.Inspect(f.ast, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 3 {
					return true
				}
				if fn := calledFunc(f.info, call); fn == nil || !isPkgObj(fn, "repro/internal/trace", "FanOut") {
					return true
				}
				if tv := f.info.Types[call.Args[1]]; tv.Value != nil && constant.Compare(tv.Value, token.EQL, constant.MakeInt64(2)) {
					out = append(out, tr.at(call, "a FanOut of two items is a hand-built round loop (use trace.Overlap)"))
				}
				return true
			})
		}
		return out
	},
}, {
	id:    "loadedset",
	name:  "One loaded set",
	since: "23f99c0",
	// DESIGN.md "Simulation accounting": SPES, its dense reference and every
	// baseline embed sim.LoadedSet, so no non-test code under internal/core
	// or internal/baselines declares the loaded-set methods again.
	why: "a second loaded set is back (embed sim.LoadedSet)",
	greps: []archGrep{{pattern: `func \(.*\) (Loaded|LoadedCount|TakeLoadDeltas)\(`, goOnly: true,
		under: []string{"internal/core", "internal/baselines"}}},
	check: func(_ *archLoader, tr *archTree) (out []finding) {
		for _, f := range tr.goFiles([]string{"internal/core", "internal/baselines"}) {
			for _, d := range f.ast.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					switch fd.Name.Name {
					case "Loaded", "LoadedCount", "TakeLoadDeltas":
						out = append(out, tr.at(fd.Name, "declares method "+fd.Name.Name+" (embed sim.LoadedSet)"))
					}
				}
			}
		}
		return out
	},
}, {
	id:    "capabilities",
	name:  "Capabilities are types",
	since: "3a8f500",
	// sim.ConfigHasher and sim.SourceFingerprint are left only for the
	// benchmark's compile-time assertions; no engine reads either. No
	// product code may probe either type — by a type assertion, a
	// type-switch case, or an interface literal carrying its method — so
	// neither becomes a run-time capability again.
	why: "a folded capability is probed at run time again",
	greps: []archGrep{{pattern: `\.\((sim\.)?(ConfigHasher|SourceFingerprint)\)`, goOnly: true,
		under: []string{"internal", "cmd", "spes", "examples"}}},
	check: func(_ *archLoader, tr *archTree) (out []finding) {
		for _, f := range tr.goFiles([]string{"internal", "cmd", "spes", "examples"}) {
			probe := func(e ast.Expr) {
				if e != nil && isFoldedCapability(f.info.TypeOf(e)) {
					out = append(out, tr.at(e, "probes "+types.ExprString(e)+" at run time"))
				}
			}
			ast.Inspect(f.ast, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeAssertExpr:
					probe(n.Type)
				case *ast.TypeSwitchStmt:
					for _, c := range n.Body.List {
						for _, e := range c.(*ast.CaseClause).List {
							probe(e)
						}
					}
				}
				return true
			})
		}
		return out
	},
}, {
	id:    "transposer",
	name:  "One transposer",
	since: "e6b9302",
	// DESIGN.md "Simulation accounting": trace.Cursor is the one slot-major
	// transposer (the engine fills its Chunks, a chunk at a time, and
	// Trace.BySlot, which serve.Replay iterates, is a thin iterator over
	// it), BuildSlotIndex only collects it for tests and the benchmark, and
	// Trace memoizes nothing, so it holds no lock.
	why: "a second transposer or the Trace memo is back (read a trace.Cursor)",
	greps: []archGrep{
		{pattern: `\.BuildSlotIndex(`, basic: true, goOnly: true, under: []string{"internal", "cmd", "spes", "examples"}},
		{pattern: `sync\.`, basic: true, tests: true, under: []string{"internal/trace/model.go"}},
	},
	check: func(_ *archLoader, tr *archTree) (out []finding) {
		for _, f := range tr.goFiles([]string{"internal", "cmd", "spes", "examples"}) {
			for _, u := range f.uses {
				if isPkgObj(u.obj, "repro/internal/trace", "BuildSlotIndex") {
					out = append(out, tr.at(u.id, "uses Trace.BuildSlotIndex outside tests and the benchmark"))
				}
			}
			if f.rel == "internal/trace/model.go" {
				for _, imp := range f.imports("sync", "sync/atomic") {
					out = append(out, tr.at(imp, "the trace model imports "+importPath(imp)))
				}
			}
		}
		return out
	},
}, {
	id:    "unreachable",
	name:  "Nothing unreachable comes back",
	since: "02833ed",
	// Code no CLI, example, figure or benchmark reached was deleted: the QoS
	// sketch, the predictor's second and third copies of the pre-warm
	// window rule, the shard cache's in-memory LRU tier with its budget
	// knobs and sweep helper (the cache is its entry directory), and helpers
	// only their own tests called — among them classify's dense entry
	// points, now the oracle's unexported helpers in its tests — and the
	// second copies of the fan-out loop, the shard content hash, the
	// daemon's apply step and the predictor's default, the sharded engine's
	// prefetch stage, the baselines' own loaded set, the capacity cache
	// refusal's error type, the shard retry knob and the float CV, the spes
	// facade's shard generator and partition wrappers with their aliases,
	// and trace's per-call shard generator (GenLayout.Shard is the one).
	// Then the shard-outcome cache itself, with its sweep resume: its
	// entry directory, stats, tripwire, the interrupted and capacity
	// refusal sentinels, and the settings field that opened it. It saved
	// ~1.2 s on a byte-identical Figure 13 re-run and nothing across seeds,
	// and its key could not see a code change, so a warm entry served a
	// stale figure.
	// Then the shard retry: a shard's production and simulation are pure
	// functions of their inputs, so a re-run fails the same way, and the
	// only fault it cured was the worker panic the fault harness injected
	// on first attempts. isolateShard runs a shard once and wraps a
	// recovered panic; the retry loop, its policy, the options field and
	// interface of the shard-worker fault seam, and the harness's worker
	// panic and slow-shard classes are gone.
	// Then the overhead option: every run times its Ticks, so no option
	// turns the clock on, and none turns idle-skipping or a fan-out off.
	// Then the settings-hash-keyed comparison cache (Workload.Comparison).
	// Then the baselines' config structs and their defaults, which nothing
	// set: Hybrid and Defuse run at their papers' settings, constants beside
	// the citations. With them went every fan-out's width option
	// (sim.Options.Workers, the harness's Matrix.Workers, eqvcheck's
	// -workers): each fan-out is GOMAXPROCS wide.
	// Then the store's second and third checksums over the same bytes: the
	// FNV content hash (and its reference and manifest field) and the
	// per-column CRCs (and the fuzz helper that refreshed them), as the
	// manifest binds each file by its seal CRC.
	// Then the retrain window arena: a window is a view of the training and
	// recorded traces (sim.BuildRetrainWindow), so the builder that copied
	// every window into reused blocks, placed longest first, and the
	// helpers its tests sized and counted the blocks with are gone.
	// Then every SPES threshold with one value in use: the fields of
	// classify.Config but θ_prewarm and θ_givenup, core.Config's own
	// tunables, classify's last width option (Workers; Categorize is
	// GOMAXPROCS wide, as every fan-out is) and predict.Predictor, a
	// one-field wrapper of one of them. Each is a constant beside the code
	// that reads it, spelled otherwise; the names live on only in the ST1
	// snapshot's frozen config schema (classify/st1.go, core/snapshot.go).
	// Case-sensitive, so predict's test-local nextWindows reference and
	// classify's laggedCOR pass. Names only: "Exported code is reached"
	// finds what is dead; this row keeps it from coming back.
	why: "deleted unreachable code is back",
	greps: []archGrep{{
		pattern: `internal/qos|WithQoS|QoSClass|NextWindows|NextPredicted|EmpiricalCDF|WindowedCOR|InvokedSlotsFromSorted|InterArrivalTimes|TotalEvents|NewShardCache|SetBudget|AttachDisk|OpenDiskCache|OpenDiskCacheFS|DiskCache|NewSweep|DefaultCacheEntries|DefaultCacheBytes|AddRowf|SlackVariants|CategorizeDeterministic|CategorizeWithForgetting|AssignIndeterminate|LaggedCOR|parallelDo|workerTokens|fingerprintShardViews|shardContentFingerprint|replayHistory|admitHistory|NewPredictor|producedShard|loadedSet|newLoadedSet|CapacityCacheError|vetPolicy|RetryPolicy|CoefficientOfVariation|GenerateTraceShard|PartitionTrace|TraceShard|TracePartition` +
			`|GenerateShard|ShardCache|OpenShardCache|OpenShardCacheFS|CacheStats|ErrInterrupted|ErrCapacityCoupled|DiskFailureTripwire|CacheDir` +
			`|retryShard|shardRetry|ShardFaultHook|FaultHook|BeforeShard|WorkerPanic|SlowShard` +
			`|MeasureOverhead|measureOverhead` +
			`|SharedComparison|comparisonCache|cacheKey|RunComparison` +
			`|HybridConfig|DefuseConfig|DefaultHybridConfig|DefaultDefuseConfig|spanSlots` +
			`|ContentHash|fpDomainContent|contentHashRef|ContentFP|sealShardBody` +
			`|WindowBuilder|arenaEvents|buildAlloc|sizedWindow`,
		word: true, goOnly: true, tests: true, under: []string{"internal", "cmd", "spes", "examples"},
	}, {
		pattern: `AlwaysWarmIdleFrac|RegularSpread|RegularCV|SlackCloseTol|SlackSmallFrac|ApproModes|ApproCoverage|DenseP90Max|DenseModes` +
			`|SuccessiveMinAT|SuccessiveMinAN|MinWTs|ApproMinWTs|DenseMinWTs|LinkPrecision|SlotsPerDay|Alpha|CORThreshold|MaxLag` +
			`|ValidationFrac|ValidationPrewarm|Workers|PossibleRangeMax|AdjustMinWTs|OnlineCandidateCap|OnlineCorrSlack|Predictor`,
		word: true, goOnly: true, tests: true, under: []string{"internal", "cmd", "spes", "examples"},
		except: []string{"internal/classify/st1.go", "internal/core/snapshot.go"},
	}, {
		pattern: `"workers"`, goOnly: true, tests: true, under: []string{"cmd"},
	}},
}, {
	id:    "wheel",
	name:  "The wheel keeps no tombstones",
	since: "e54f156",
	// DESIGN.md "Moving a deadline": sched.Wheel holds only live deadlines
	// in one slab, so no generation counter (Seq) and no overflow map come
	// back to non-test internal/sched code — under any name or type alias.
	why:   "internal/sched keeps tombstones again",
	greps: []archGrep{{pattern: `\bSeq\b|map\[`, goOnly: true, under: []string{"internal/sched"}}},
	check: func(_ *archLoader, tr *archTree) (out []finding) {
		for _, f := range tr.goFiles([]string{"internal/sched"}) {
			lines := map[int]bool{}
			ast.Inspect(f.ast, func(n ast.Node) bool {
				e, ok := n.(ast.Expr)
				if !ok {
					return true
				}
				if id, ok := e.(*ast.Ident); ok && id.Name == "Seq" {
					out = append(out, tr.at(id, "declares or uses Seq, a generation counter"))
				}
				line := tr.fset.Position(e.Pos()).Line
				if t := f.info.TypeOf(e); t != nil && !lines[line] {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						lines[line] = true
						out = append(out, tr.at(e, "holds a map"))
					}
				}
				return true
			})
		}
		return out
	},
}, {
	id:    "rng",
	name:  "One generator RNG",
	since: "e7ba6d4",
	// DESIGN.md "Generator layout split": every generated byte is a function
	// of Go 1 math/rand's stream, drawn through stats.RNG's copy of its
	// source. Only rng.go (for the rand.Rand over that copy) and the
	// examples may import math/rand outside tests, where it is the oracle.
	why: "math/rand imported outside internal/stats/rng.go and examples/",
	greps: []archGrep{{pattern: `"math/rand(/v2)?"`, goOnly: true,
		except: []string{"internal/stats/rng.go", "examples/"}}},
	check: func(_ *archLoader, tr *archTree) (out []finding) {
		for _, f := range tr.goFiles(nil, "internal/stats/rng.go", "examples/") {
			for _, imp := range f.imports("math/rand", "math/rand/v2") {
				out = append(out, tr.at(imp, "imports "+importPath(imp)+" (draw through stats.RNG)"))
			}
		}
		return out
	},
}, {
	id:    "harness",
	name:  "The engine never imports the harness",
	since: "cee32bb",
	// internal/faultinject's package doc: the harness implements the seams
	// the product declares (durable.FS, and for serving the net/http Handler
	// and RoundTripper), so the arrow points one way.
	// Non-test code under internal/ imports none of the harness packages.
	// And internal/eqv, the equivalence matrix, has no non-test importer but
	// cmd/eqvcheck.
	check: func(_ *archLoader, tr *archTree) (out []finding) {
		for _, f := range tr.goFiles([]string{"internal"}, "internal/eqv/") {
			for _, imp := range f.imports(harnessPkgs...) {
				out = append(out, tr.at(imp, "engine code imports the harness package "+importPath(imp)))
			}
		}
		for _, f := range tr.goFiles(nil, "cmd/eqvcheck/") {
			for _, imp := range f.imports("repro/internal/eqv") {
				out = append(out, tr.at(imp, "imports internal/eqv; only cmd/eqvcheck and tests may"))
			}
		}
		return out
	},
}, {
	id:    "maporder",
	name:  "No map-ordered output",
	since: "02833ed",
	// Go randomizes map iteration order, so a range over a map whose body
	// prints, writes or draws from a random source produces different
	// output (or different random draws) on every run of a CLI, example,
	// figure or table. Walk a sorted key slice instead. Nested closures and
	// loops count.
	check: func(_ *archLoader, tr *archTree) (out []finding) {
		for _, f := range tr.goFiles([]string{"cmd", "examples", "internal/experiments", "internal/report"}) {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if _, isMap := f.info.TypeOf(rs.X).Underlying().(*types.Map); isMap {
					if call := orderSensitiveCall(f.info, rs.Body); call != "" {
						out = append(out, tr.at(rs, "range over a map calls "+call+" in map order"))
					}
				}
				return true
			})
		}
		return out
	},
}, {
	id:    "deadness",
	name:  "Exported code is reached",
	since: "cee32bb",
	// Every exported package-level declaration and method in non-test code
	// has a live non-test referrer outside its own declaration (see
	// deadExports), or an entry in deadAllow saying why it stays.
	check: deadExports,
}}

// harnessPkgs are the equivalence and fault-tolerance harness: their
// declarations may be reached from tests alone.
var harnessPkgs = []string{"repro/internal/eqv", "repro/internal/faultinject", "repro/internal/memwatch"}

// harnessDirs are the directories, relative to the module root, whose
// exported code counts _test.go referrers.
var harnessDirs = []string{"internal/eqv", "internal/faultinject", "internal/memwatch", "cmd/eqvcheck"}

// deadAllow lists the exported declarations nothing in the program reaches
// that stay on purpose, each with its reason. A key is the declaring
// package's directory and the name, with the receiver's type name for a
// method. An entry that matches nothing is itself a finding.
var deadAllow = map[string]string{
	"internal/series.Extract":                   "the dense oracle classify's, trace's and series' tests hold the sparse paths and the generator to",
	"internal/series.InvokedSlots":              "the dense oracle classify's categorization oracle is built on",
	"internal/series.TrimEnds":                  "the paper's first slacking rule as written; classify cites it and trims in place",
	"internal/series.MergeSmallWTs":             "the paper's second slacking rule as written; classify cites it and runs it as AppendMergedWTs",
	"internal/trace.Series.Dense":               "expands a sparse series into the dense form the series oracles read, in classify's and trace's tests",
	"internal/series.Activity.TotalWT":          "definition 1's summed idle over a dense Activity, which classify's oracle and TestAlwaysWarmFastMatchesActivityBranch hold alwaysWarmFast to",
	"internal/series.Activity.InvokedEverySlot": "definition 1's every-slot test over a dense Activity, which classify's oracle and TestAlwaysWarmFastMatchesActivityBranch hold alwaysWarmFast to",
	"internal/stats.IntsToFloats":               "the float copy classify's oracle and trace's pattern tests take their WT statistics from",
	"internal/stats.StdDev":                     "the float standard deviation classify's oracle and the int-fed StdDevInts are held to",
	"internal/stats.Mode":                       "the appro-regular mode trace's pattern tests hold the generator's waiting times to",
	"internal/stats.ModesCoverage":              "the appro-regular coverage trace's pattern tests hold the generator's waiting times to",
	"internal/stats.RNG.IntBetween":             "FuzzRNGMatchesMathRand holds it to math/rand draw for draw; trace's and classify's tests draw bounded sizes with it",
	facadeKey:                                   "the public facade's vocabulary: aliases, constants and the sentinel errors its Run and RunStreamed wrap, which callers outside the module name",
}

// facadeKey stands for every re-exported type, constant and sentinel error
// of package spes.
const facadeKey = "spes: re-exported types, constants and sentinel errors"

// reexportsError reports whether e names an error variable of an internal
// package, as the facade's sentinel errors do.
func reexportsError(info *types.Info, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	v, ok := info.Uses[sel.Sel].(*types.Var)
	return ok && v.Pkg() != nil && strings.Contains(v.Pkg().Path(), "/internal/") &&
		types.Identical(v.Type(), types.Universe.Lookup("error").Type())
}

// deadExports flags exported code with no live non-test referrer outside its
// own declaration; a referrer inside a declaration it flags is not live.
// Referrers anywhere in the tree count, cmd/, examples/ and
// benchmark/ included; the harness directories' declarations also count
// _test.go referrers. A method counts as reached when its type (or a type
// embedding it) implements an interface the program uses — one whose type
// appears in its non-test code, error, or one of implicitIfaces — and the
// interface has the method. Receiver types of method declarations are not
// referrers of their type. Struct fields and interface methods belong to
// their type's declaration and are not checked on their own.
func deadExports(l *archLoader, tr *archTree) (out []finding) {
	type decl struct {
		obj        types.Object
		start, end token.Pos
		pkg        *archPkg
		reexport   bool // a var whose value is an internal package's sentinel error
	}
	var decls []decl
	for _, p := range tr.pkgs {
		if p.benchmark || p.types == nil {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.ast.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() {
						decls = append(decls, decl{p.info.Defs[d.Name], d.Pos(), d.End(), p, false})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var names []*ast.Ident
						var values []ast.Expr
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names, values = s.Names, s.Values
						}
						for i, id := range names {
							if id.IsExported() {
								reexport := i < len(values) && reexportsError(p.info, values[i])
								decls = append(decls, decl{p.info.Defs[id], s.Pos(), s.End(), p, reexport})
							}
						}
					}
				}
			}
		}
	}

	// Every non-test use, and the test uses that may reach the harness.
	refs := map[token.Pos][]token.Pos{}
	testRefs := map[token.Pos]bool{}
	for _, p := range tr.pkgs {
		for _, f := range p.files {
			for _, u := range f.uses {
				refs[origin(u.obj).Pos()] = append(refs[origin(u.obj).Pos()], u.id.Pos())
			}
		}
		for _, f := range p.tests {
			for _, u := range f.uses {
				testRefs[origin(u.obj).Pos()] = true
			}
		}
	}
	for pos := range implementingMethods(l, tr) {
		refs[pos] = append(refs[pos], token.NoPos)
	}

	key := func(d decl) string {
		if fn, ok := d.obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				return d.pkg.dir + "." + namedOf(recv.Type()).Obj().Name() + "." + fn.Name()
			}
		}
		tn, isType := d.obj.(*types.TypeName)
		if _, isConst := d.obj.(*types.Const); d.pkg.dir == "spes" && (isConst || isType && tn.IsAlias() || d.reexport) {
			return facadeKey
		}
		return d.pkg.dir + "." + d.obj.Name()
	}

	// Deadness is a fixpoint: a referrer inside a declaration already found
	// dead does not count, so a chain of declarations reached only from each
	// other is found whole in one run. Allowlisted declarations stay live.
	dead := make([]bool, len(decls))
	var deadSpans []decl
	inDead := func(at token.Pos) bool {
		for _, d := range deadSpans {
			if at >= d.start && at < d.end {
				return true
			}
		}
		return false
	}
	reached := func(d decl) bool {
		for _, at := range refs[d.obj.Pos()] {
			if (at < d.start || at >= d.end) && !inDead(at) {
				return true
			}
		}
		return testRefs[d.obj.Pos()] && d.pkg.harness
	}
	allowed := func(d decl) bool {
		_, ok := deadAllow[key(d)]
		return ok && tr.real
	}
	for changed := true; changed; {
		changed = false
		for i, d := range decls {
			if !dead[i] && !allowed(d) && !reached(d) {
				dead[i], changed = true, true
				deadSpans = append(deadSpans, d)
			}
		}
	}

	matched := map[string]bool{}
	for i, d := range decls {
		switch {
		case allowed(d) && !reached(d):
			matched[key(d)] = true
		case dead[i]:
			what := "has no live non-test referrer"
			if d.pkg.harness {
				what = "has no live referrer"
			}
			out = append(out, tr.at(d.obj, key(d)+" "+what+": delete it, or add it to deadAllow with the reason it stays"))
		}
	}
	if tr.real {
		for k := range deadAllow {
			if !matched[k] {
				out = append(out, finding{pos: "archrules_test.go", msg: "deadAllow entry " + k + " matches no unreached declaration: drop it"})
			}
		}
	}
	return out
}

// implementingMethods returns the positions of the methods that satisfy an
// interface the tree uses: for each named type declared in the tree and
// each such interface it (or its pointer) implements, the method — its own
// or promoted from an embedded field — that provides each interface method.
func implementingMethods(l *archLoader, tr *archTree) map[token.Pos]bool {
	ifaces := map[*types.Interface]bool{
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true,
	}
	for _, name := range l.implicit.Scope().Names() {
		ifaces[l.implicit.Scope().Lookup(name).Type().Underlying().(*types.Interface)] = true
	}
	var add func(t types.Type)
	add = func(t types.Type) {
		if t == nil {
			return
		}
		switch u := t.Underlying().(type) {
		case *types.Interface:
			if u.NumMethods() > 0 && u.IsMethodSet() {
				ifaces[u] = true
			}
		case *types.Signature:
			for _, tuple := range []*types.Tuple{u.Params(), u.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					add(tuple.At(i).Type())
				}
			}
		}
	}
	var named []*types.Named
	for _, p := range tr.pkgs {
		if p.types == nil {
			continue
		}
		for _, tv := range p.info.Types {
			add(tv.Type)
		}
		for _, obj := range p.info.Uses {
			if v, ok := obj.(*types.Var); ok {
				add(v.Type())
			}
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() == nil && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
	}
	out := map[token.Pos]bool{}
	for _, n := range named {
		for iface := range ifaces {
			var recv types.Type
			switch {
			case types.Implements(n, iface):
				recv = n
			case types.Implements(types.NewPointer(n), iface):
				recv = types.NewPointer(n)
			default:
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(recv, true, m.Pkg(), m.Name()); obj != nil {
					out[origin(obj).Pos()] = true
				}
			}
		}
	}
	return out
}

// implicitIfaces are the interfaces the standard library looks for at run
// time, by type assertions no source in the tree spells: fmt's printing
// hooks and the errors package's unwrapping and matching ones.
const implicitIfaces = `package implicit

import "fmt"

type (
	stringer       = fmt.Stringer
	goStringer     = fmt.GoStringer
	formatter      = fmt.Formatter
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	matcher        interface{ Is(error) bool }
	converter      interface{ As(any) bool }
)
`

// archLoader type-checks the trees from source, in one file set: module
// packages import each other's source-checked packages (so object identity
// holds across packages, benchmark/ and the fixtures included), and the
// standard library comes from the compiler's export data.
type archLoader struct {
	fset     *token.FileSet
	std      types.Importer
	pkgs     map[string]*archPkg // by import path
	implicit *types.Package      // implicitIfaces
}

type archTree struct {
	root string // directory, relative to the module root
	real bool   // the module itself, not a fixture
	pkgs []*archPkg
	text map[string][]byte // every file the greps may read, by path relative to root
	fset *token.FileSet
}

type archPkg struct {
	dir       string // relative to the tree root, "." for the root
	path      string
	benchmark bool // the benchmark module: a referrer, never checked for deadness
	harness   bool
	files     []*archFile // non-test
	tests     []*archFile // type-checked when they may refer to the harness
	types     *types.Package
	info      *types.Info
}

type archFile struct {
	rel  string // relative to the tree root
	ast  *ast.File
	info *types.Info
	uses []archUse // identifier uses outside method receivers, in source order
}

type archUse struct {
	id  *ast.Ident
	obj types.Object
}

// loadArchTrees parses and type-checks the module (benchmark/ included)
// and every fixture tree under testdata/archrules.
func loadArchTrees(t *testing.T) (*archLoader, *archTree, []*archTree) {
	t.Helper()
	l := &archLoader{fset: token.NewFileSet(), pkgs: map[string]*archPkg{}}
	real, err := l.parseTree(".", "repro", true)
	if err != nil {
		t.Fatal(err)
	}
	var fixtures []*archTree
	dirs, err := os.ReadDir("testdata/archrules")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		fx, err := l.parseTree(path.Join("testdata/archrules", d.Name()), "archfixture/"+d.Name(), false)
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, fx)
	}

	std := map[string]bool{"fmt": true} // implicitIfaces imports it
	for _, p := range l.pkgs {
		for _, f := range append(append([]*archFile(nil), p.files...), p.tests...) {
			for _, imp := range f.ast.Imports {
				if ip := importPath(imp); l.pkgs[ip] == nil {
					std[ip] = true
				}
			}
		}
	}
	lookup, err := exportData(std)
	if err != nil {
		t.Fatal(err)
	}
	l.std = importer.ForCompiler(l.fset, "gc", lookup)
	f, err := parser.ParseFile(l.fset, "implicit.go", implicitIfaces, 0)
	if err == nil {
		l.implicit, err = (&types.Config{Importer: l}).Check("implicit", l.fset, []*ast.File{f}, nil)
	}
	if err != nil {
		t.Fatal(err)
	}

	for _, tr := range append([]*archTree{real}, fixtures...) {
		for _, p := range tr.pkgs {
			if _, err := l.check(p); err != nil {
				t.Fatalf("type-checking %s: %v", path.Join(tr.root, p.dir), err)
			}
			l.checkTests(p)
		}
	}
	return l, real, fixtures
}

// parseTree reads every file under root (dot-directories and testdata
// skipped) and parses the Go files the compiler builds on this platform
// (build constraints and _GOOS/_GOARCH suffixes apply; the greps still read
// every file) into packages named modPath/dir. In the
// module itself, benchmark/ is the benchmark module: its own go.mod, and a
// referrer only.
func (l *archLoader) parseTree(root, modPath string, real bool) (*archTree, error) {
	tr := &archTree{root: root, real: real, text: map[string][]byte{}, fset: l.fset}
	byDir := map[string]*archPkg{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		tr.text[rel] = src
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); !ok || err != nil {
			return err // build constraints exclude it, as they do for the compiler
		}
		f, err := parser.ParseFile(l.fset, filepath.ToSlash(p), src, 0)
		if err != nil {
			return err
		}
		dir := path.Dir(rel)
		pk := byDir[dir]
		if pk == nil {
			ip := modPath
			if dir != "." {
				ip += "/" + dir
			}
			pk = &archPkg{dir: dir, path: ip}
			pk.benchmark = real && (dir == "benchmark" || strings.HasPrefix(dir, "benchmark/"))
			for _, h := range harnessDirs {
				pk.harness = pk.harness || dir == h
			}
			byDir[dir] = pk
			l.pkgs[ip] = pk
			tr.pkgs = append(tr.pkgs, pk)
		}
		af := &archFile{rel: rel, ast: f}
		if strings.HasSuffix(rel, "_test.go") {
			pk.tests = append(pk.tests, af)
		} else {
			pk.files = append(pk.files, af)
		}
		return nil
	})
	sort.Slice(tr.pkgs, func(i, j int) bool { return tr.pkgs[i].dir < tr.pkgs[j].dir })
	return tr, err
}

// Import resolves module packages to their source-checked packages and the
// rest to export data.
func (l *archLoader) Import(ip string) (*types.Package, error) {
	if p := l.pkgs[ip]; p != nil {
		return l.check(p)
	}
	return l.std.Import(ip)
}

func (l *archLoader) check(p *archPkg) (*types.Package, error) {
	if p.types != nil || len(p.files) == 0 {
		return p.types, nil
	}
	p.info = newInfo()
	var err error
	p.types, err = (&types.Config{Importer: l}).Check(p.path, l.fset, asts(p.files), p.info)
	for _, f := range p.files {
		f.info = p.info
		f.uses = collectUses(f.ast, p.info)
	}
	return p.types, err
}

// checkTests type-checks p's test files when they may refer to the harness:
// p is a harness package, or one of its test files imports one. In-package
// test files are checked with p's own files, external ones as their own
// package; errors (an external test naming an export_test.go helper, say)
// are dropped, since only the uses that resolve matter.
func (l *archLoader) checkTests(p *archPkg) {
	var in, ext []*archFile
	refers := p.harness
	for _, f := range p.tests {
		if strings.HasSuffix(f.ast.Name.Name, "_test") {
			ext = append(ext, f)
		} else {
			in = append(in, f)
		}
		refers = refers || len(f.imports(harnessPkgs...)) > 0
	}
	if !refers {
		return
	}
	check := func(ip string, files []*archFile) {
		info := newInfo()
		(&types.Config{Importer: l, Error: func(error) {}}).Check(ip, l.fset, asts(files), info)
		for _, f := range files {
			if strings.HasSuffix(f.rel, "_test.go") {
				f.info = info
				f.uses = collectUses(f.ast, info)
			}
		}
	}
	if len(in) > 0 {
		check(p.path, append(append([]*archFile(nil), p.files...), in...))
	}
	if len(ext) > 0 {
		check(p.path+"_test", ext)
	}
}

func newInfo() *types.Info {
	return &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
}

func asts(files []*archFile) []*ast.File {
	out := make([]*ast.File, len(files))
	for i, f := range files {
		out[i] = f.ast
	}
	return out
}

// collectUses lists f's identifier uses, skipping method receivers: a
// receiver names its own type, which does not make the type reached.
func collectUses(f *ast.File, info *types.Info) []archUse {
	var out []archUse
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil {
				ast.Inspect(n.Type, walk)
				if n.Body != nil {
					ast.Inspect(n.Body, walk)
				}
				return false
			}
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil {
				out = append(out, archUse{n, obj})
			}
		}
		return true
	}
	ast.Inspect(f, walk)
	return out
}

// goFiles returns the tree's type-checked non-test files under any of the
// given paths (nil is the whole tree) and outside every except prefix.
func (tr *archTree) goFiles(under []string, except ...string) []*archFile {
	var out []*archFile
	for _, p := range tr.pkgs {
		if p.types == nil {
			continue
		}
		for _, f := range p.files {
			if inScope(f.rel, under, except) {
				out = append(out, f)
			}
		}
	}
	return out
}

func inScope(rel string, under, except []string) bool {
	in := under == nil
	for _, u := range under {
		in = in || rel == u || strings.HasPrefix(rel, u+"/")
	}
	for _, e := range except {
		in = in && !strings.HasPrefix(rel, e)
	}
	return in
}

// run greps the tree's files in scope line by line, as the CI step did.
func (g archGrep) run(tr *archTree) []finding {
	pat := g.pattern
	if g.basic {
		pat = strings.NewReplacer("(", `\(`, ")", `\)`).Replace(pat)
	}
	if g.word {
		pat = `\b(?:` + pat + `)\b`
	}
	re := regexp.MustCompile(pat)
	var out []finding
	for rel, src := range tr.text {
		if tr.real && rel == "archrules_test.go" { // the table spells every pattern
			continue
		}
		if !inScope(rel, g.under, g.except) || g.goOnly && !strings.HasSuffix(rel, ".go") ||
			!g.tests && strings.HasSuffix(rel, "_test.go") {
			continue
		}
		for i, line := range bytes.Split(src, []byte("\n")) {
			if m := re.Find(line); m != nil {
				out = append(out, finding{pos: fmt.Sprintf("%s:%d", path.Join(tr.root, rel), i+1),
					msg: fmt.Sprintf("matches %q", m), byGrep: true})
			}
		}
	}
	return out
}

// at is a finding at n's position.
func (tr *archTree) at(n interface{ Pos() token.Pos }, msg string) finding {
	pos := tr.fset.Position(n.Pos())
	return finding{pos: fmt.Sprintf("%s:%d", pos.Filename, pos.Line), msg: msg}
}

// imports returns f's import specs of any of the given paths, however the
// import is named.
func (f *archFile) imports(paths ...string) []*ast.ImportSpec {
	var out []*ast.ImportSpec
	for _, imp := range f.ast.Imports {
		for _, p := range paths {
			if importPath(imp) == p {
				out = append(out, imp)
			}
		}
	}
	return out
}

func importPath(imp *ast.ImportSpec) string { return strings.Trim(imp.Path.Value, `"`) }

// isPkgObj reports whether obj is declared at package level (or as a method)
// in package pkg under one of names.
func isPkgObj(obj types.Object, pkg string, names ...string) bool {
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != pkg {
		return false
	}
	for _, n := range names {
		if obj.Name() == n {
			return true
		}
	}
	return false
}

// isFoldedCapability reports whether t is sim.ConfigHasher or
// sim.SourceFingerprint, or an interface literal carrying their method.
func isFoldedCapability(t types.Type) bool {
	if t == nil {
		return false
	}
	if n, ok := t.(*types.Named); ok {
		return isPkgObj(n.Obj(), "repro/internal/sim", "ConfigHasher", "SourceFingerprint")
	}
	if iface, ok := t.(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			if name := iface.Method(i).Name(); name == "ConfigHash" || name == "ShardFingerprint" {
				return true
			}
		}
	}
	return false
}

// calledFunc returns the function or method a call invokes, or nil.
func calledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// origin maps an instantiated generic function or method to its
// declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// exportData lists the packages (and everything they import) with
// go list -export, served from the build cache when it is warm, and returns
// a lookup of each import path's export data file.
func exportData(pkgs map[string]bool) (importer.Lookup, error) {
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}
	for p := range pkgs {
		args = append(args, p)
	}
	sort.Strings(args[5:])
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			err = fmt.Errorf("%w\n%s", err, exit.Stderr)
		}
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	files := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		p, file, _ := strings.Cut(line, "=")
		files[p] = file
	}
	return func(p string) (io.ReadCloser, error) {
		if files[p] == "" {
			return nil, fmt.Errorf("no export data for %q", p)
		}
		return os.Open(files[p])
	}, nil
}

// orderSensitiveCall returns the first call under body whose effect depends
// on the order it runs in — fmt.Print*/Fprint*, a Write* function or
// method, or a draw from a random source (math/rand, or a method of a type
// named RNG or Rand) — or "" when there is none.
func orderSensitiveCall(info *types.Info, body ast.Node) string {
	found := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok {
			return true
		}
		name := fn.Name()
		pkg := ""
		if fn.Pkg() != nil {
			pkg = fn.Pkg().Path()
		}
		recv := ""
		if sig := fn.Type().(*types.Signature); sig.Recv() != nil {
			if named := namedOf(sig.Recv().Type()); named != nil {
				recv = named.Obj().Name()
			}
		}
		switch {
		case pkg == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")),
			strings.HasPrefix(name, "Write"),
			pkg == "math/rand" || pkg == "math/rand/v2",
			recv == "RNG" || recv == "Rand":
			found = pkg + "." + name
			if recv != "" {
				found = recv + "." + name
			}
		}
		return true
	})
	return found
}
