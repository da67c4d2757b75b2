// Benchmarks regenerating every artifact of the reproduction (README,
// "Benchmarks"). One bench per artifact; custom metrics carry the scientific
// output (rounds, contraction factors, convergence verdicts) alongside the
// usual ns/op. Run:
//
//	go test -bench=. -benchmem
package mbfaa_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"mbfaa"
	"mbfaa/internal/analysis"
	"mbfaa/internal/cluster"
	"mbfaa/internal/core"
	"mbfaa/internal/lowerbound"
	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
	"mbfaa/internal/sweep"
	"mbfaa/internal/transport"
	"time"
)

// benchOpts are faster than the defaults: benches re-run many times.
func benchOpts() sweep.Options {
	opt := sweep.DefaultOptions()
	opt.FreezeRounds = 50
	return opt
}

// BenchmarkMixedModeSubstrate validates the static Kieckhafer–Azadmanesh
// bound n > 3a+2s+b that the mobile results are mapped onto (experiment
// T0).
func BenchmarkMixedModeSubstrate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sweep.MixedModeBounds(2, 2, 2, msr.FTA{}, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if !res.Ok() {
			b.Fatal("substrate bound broken")
		}
	}
}

// BenchmarkFigure7EpsilonSweep measures rounds-to-ε across tolerance
// decades against the contraction-derived prediction (F7).
func BenchmarkFigure7EpsilonSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, model := range mobile.AllModels() {
			res, err := sweep.EpsilonSweep(model, 2, msr.FTM{}, 4, benchOpts())
			if err != nil {
				b.Fatal(err)
			}
			if !res.WithinPrediction() {
				b.Fatalf("%v: prediction exceeded", model)
			}
		}
	}
}

// BenchmarkFigure8SeedRobustness aggregates convergence over 20 random
// seeds per model (F8).
func BenchmarkFigure8SeedRobustness(b *testing.B) {
	var p95 int
	for i := 0; i < b.N; i++ {
		for _, model := range mobile.AllModels() {
			res, err := sweep.SeedRobustness(model, 2, 20, msr.FTM{}, benchOpts())
			if err != nil {
				b.Fatal(err)
			}
			if !res.Ok() {
				b.Fatalf("%v: a seed failed", model)
			}
			p95 = res.RoundsP95
		}
	}
	b.ReportMetric(float64(p95), "p95-rounds")
}

// BenchmarkSweepParallel contrasts the sweep runner's sequential reference
// (workers=1) with the full worker pool on the Table 2 grid. On a
// multi-core runner the parallel arm should be ≥2× faster; the outputs are
// byte-identical either way (asserted by internal/sweep's worker-invariance
// tests).
func BenchmarkSweepParallel(b *testing.B) {
	for _, workers := range []int{1, runtime.NumCPU()} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := benchOpts()
			opt.Workers = workers
			for i := 0; i < b.N; i++ {
				res, err := sweep.Table2([]int{1, 2, 3}, msr.FTA{}, opt)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Ok() {
					b.Fatal("Table 2 bounds broken")
				}
			}
		})
	}
}

// BenchmarkTable1Mapping regenerates Table 1: one adversarial round per
// model, classified from the observation matrix (experiment T1).
func BenchmarkTable1Mapping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sweep.Table1(2, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if !res.Ok() {
			b.Fatal("Table 1 mapping mismatch")
		}
	}
}

// BenchmarkTable2Bounds regenerates Table 2: the solvability sweep around
// every model's replica bound (experiment T2).
func BenchmarkTable2Bounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sweep.Table2([]int{1, 2}, msr.FTA{}, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if !res.Ok() {
			b.Fatal("Table 2 bounds broken")
		}
	}
}

// benchLowerBound runs one model's indistinguishability construction plus
// the executable freeze probe (experiments LB1–LB4).
func benchLowerBound(b *testing.B, model mobile.Model) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s, err := lowerbound.Build(model, 2)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := s.Verify()
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Violated {
			b.Fatal("construction failed")
		}
		outA, outB, err := s.Demonstrate(msr.FTA{})
		if err != nil {
			b.Fatal(err)
		}
		if outA != 0 || outB != 1 {
			b.Fatalf("demonstration outputs %g, %g", outA, outB)
		}
	}
	b.ReportMetric(1, "violations/op")
}

func BenchmarkLowerBoundM1(b *testing.B) { benchLowerBound(b, mobile.M1Garay) }
func BenchmarkLowerBoundM2(b *testing.B) { benchLowerBound(b, mobile.M2Bonnet) }
func BenchmarkLowerBoundM3(b *testing.B) { benchLowerBound(b, mobile.M3Sasaki) }
func BenchmarkLowerBoundM4(b *testing.B) { benchLowerBound(b, mobile.M4Buhrman) }

// BenchmarkTheorem1Equivalence runs 30 adversarial rounds per model with
// the equivalence checker on and asserts every round certifies (TH1, L5).
func BenchmarkTheorem1Equivalence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, model := range mobile.AllModels() {
			f := 2
			n := model.RequiredN(f)
			layout, err := mobile.SplitterLayout(model, n, f, 0, 1)
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.Config{
				Model:          model,
				N:              n,
				F:              f,
				Algorithm:      msr.FTM{},
				Adversary:      mobile.NewRotating(),
				Inputs:         layout.Inputs(n),
				Epsilon:        1e-9,
				FixedRounds:    30,
				EnableCheckers: true,
				Seed:           uint64(i),
			}
			res, err := core.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Check.Ok() || !res.Check.Lemma5Holds() {
				b.Fatalf("%v: equivalence broke", model)
			}
		}
	}
	b.ReportMetric(30*4, "certified-rounds/op")
}

// BenchmarkTheorem2Properties verifies Termination, ε-Agreement and
// Validity across all models × convergent algorithms at n = n_Mi + 1 under
// the worst-case splitter (TH2).
func BenchmarkTheorem2Properties(b *testing.B) {
	totalRounds := 0
	for i := 0; i < b.N; i++ {
		for _, model := range mobile.AllModels() {
			for _, algo := range msr.Convergent() {
				f := 2
				n := model.RequiredN(f)
				adv, inputs, cured, err := mbfaa.WorstCase(model, n, f, 0, 1)
				if err != nil {
					b.Fatal(err)
				}
				res, err := mbfaa.Run(
					mbfaa.WithModel(model),
					mbfaa.WithSystem(n, f),
					mbfaa.WithAlgorithm(algo),
					mbfaa.WithAdversary(adv),
					mbfaa.WithInputs(inputs...),
					mbfaa.WithInitialCured(cured...),
					mbfaa.WithEpsilon(1e-3),
				)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged || !res.EpsilonAgreement(1e-3) || !res.Valid() {
					b.Fatalf("%v/%s: Theorem 2 failed", model, algo.Name())
				}
				totalRounds += res.Rounds
			}
		}
	}
	b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds/op")
}

// BenchmarkFigure1Trajectory records the diameter decay at n = n_Mi+1 and
// reports the mean contraction factor (F1).
func BenchmarkFigure1Trajectory(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		for _, model := range mobile.AllModels() {
			tr, err := sweep.Trajectory(model, 2, msr.FTM{}, benchOpts())
			if err != nil {
				b.Fatal(err)
			}
			if !tr.Summary.ReachedEps {
				b.Fatalf("%v: no convergence", model)
			}
			mean = tr.Summary.MeanContraction
		}
	}
	b.ReportMetric(mean, "contraction")
}

// BenchmarkFigure2RoundsVsN sweeps n and reports the rounds needed at the
// minimum system size (F2).
func BenchmarkFigure2RoundsVsN(b *testing.B) {
	var atMin int
	for i := 0; i < b.N; i++ {
		for _, model := range mobile.AllModels() {
			rv, err := sweep.RoundsVsN(model, 2, 5, msr.FTM{}, benchOpts())
			if err != nil {
				b.Fatal(err)
			}
			if !rv.Monotone() {
				b.Fatalf("%v: rounds-vs-n not monotone", model)
			}
			atMin = rv.Points[0].Rounds
		}
	}
	b.ReportMetric(float64(atMin), "rounds@minN")
}

// BenchmarkFigure3Ablation measures every algorithm under the greedy
// adversary and checks the contraction guarantees (F3).
func BenchmarkFigure3Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sweep.Ablation(2, benchOpts(), msr.All())
		if err != nil {
			b.Fatal(err)
		}
		if !res.GuaranteesHold() {
			b.Fatal("a contraction guarantee was violated")
		}
	}
}

// BenchmarkFigure4MobileVsStatic contrasts static faults (τ=f protocol,
// stationary agents) with mobile faults at n = n_Mi (F4).
func BenchmarkFigure4MobileVsStatic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, model := range mobile.AllModels() {
			res, err := sweep.MobileVsStatic(model, 2, msr.FTA{}, benchOpts())
			if err != nil {
				b.Fatal(err)
			}
			if !res.Ok() {
				b.Fatalf("%v: mobile-vs-static shape broken", model)
			}
		}
	}
}

// BenchmarkEngineScaling measures simulator throughput as n grows (F5).
func BenchmarkEngineScaling(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024} {
		n := n
		b.Run(sizeName(n), func(b *testing.B) {
			f := mobile.M1Garay.MaxFaulty(n)
			inputs := make([]float64, n)
			for i := range inputs {
				inputs[i] = float64(i) / float64(n)
			}
			cfg := core.Config{
				Model:       mobile.M1Garay,
				N:           n,
				F:           f,
				Algorithm:   msr.FTM{},
				Adversary:   mobile.NewRotating(),
				Inputs:      inputs,
				Epsilon:     1e-9,
				FixedRounds: 20,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(20*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
		})
	}
}

// BenchmarkFigure6Engines compares the deterministic simulator with a real
// TCP cluster on the same workload (F6).
func BenchmarkFigure6Engines(b *testing.B) {
	const n, f = 9, 2
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(i) / n
	}
	mkCfg := func() core.Config {
		return core.Config{
			Model:       mobile.M1Garay,
			N:           n,
			F:           f,
			Algorithm:   msr.FTM{},
			Adversary:   mobile.NewRotating(),
			Inputs:      inputs,
			Epsilon:     1e-6,
			FixedRounds: 10,
			Seed:        1,
		}
	}
	b.Run("deterministic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(mkCfg()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tcp-cluster", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nodes, err := transport.NewTCPMesh(n, []byte("bench-key"))
			if err != nil {
				b.Fatal(err)
			}
			links := make([]transport.Link, n)
			cfgs := make([]cluster.Config, n)
			for j := range cfgs {
				links[j] = nodes[j]
				cfgs[j] = cluster.Config{
					ID: j, N: n, F: f,
					Model:        mobile.M1Garay,
					Algorithm:    msr.FTM{},
					Input:        inputs[j],
					InputRange:   1,
					Epsilon:      1e-3,
					RoundTimeout: 250 * time.Millisecond,
					Schedule:     cluster.RotatingFaults{N: n, F: f},
				}
			}
			if _, err := cluster.RunCluster(context.Background(), cfgs, links); err != nil {
				b.Fatal(err)
			}
			for _, nd := range nodes {
				_ = nd.Close()
			}
		}
	})
}

// BenchmarkFreezeProbe measures the per-round cost of the splitter's
// frozen equilibrium (the inner loop of the Table 2 negative cells).
func BenchmarkFreezeProbe(b *testing.B) {
	layout, err := mobile.SplitterLayout(mobile.M2Bonnet, 10, 2, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		cfg := core.Config{
			Model:        mobile.M2Bonnet,
			N:            10,
			F:            2,
			Algorithm:    msr.FTA{},
			Adversary:    mobile.NewSplitter(),
			Inputs:       layout.Inputs(10),
			InitialCured: layout.InitialCured(mobile.M2Bonnet, 2),
			Epsilon:      1e-3,
			FixedRounds:  50,
		}
		res, err := core.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Converged {
			b.Fatal("freeze broke")
		}
		if !analysis.Series(res.DiameterSeries).Frozen(0, 1e-9) {
			b.Fatal("diameter not frozen")
		}
	}
}

func sizeName(n int) string {
	switch n {
	case 16:
		return "n=16"
	case 64:
		return "n=64"
	case 256:
		return "n=256"
	default:
		return "n=1024"
	}
}

// BenchmarkEngineRunPooled measures the public Engine on repeated runs of
// one spec: the pooled runner must keep the round loop at the core
// Runner's allocation budget (compare with the core alloc guards and
// BenchmarkSweepParallel).
func BenchmarkEngineRunPooled(b *testing.B) {
	spec, err := mbfaa.WorstCaseSpec(mbfaa.M2, 12, 2, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	spec.Algorithm = mbfaa.FTA
	spec.Epsilon = 1e-3
	spec.FixedRounds = 50
	eng := mbfaa.NewEngine()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(ctx, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRunBatch measures the public batch layer end to end: a
// 48-spec grid (4 models × 3 adversaries × 4 seeds) on the default worker
// pool.
func BenchmarkEngineRunBatch(b *testing.B) {
	var specs []mbfaa.Spec
	for _, model := range mobile.AllModels() {
		n := model.RequiredN(2) + 1
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = float64(i) / float64(n)
		}
		for _, adv := range []string{"rotating", "random", "crash"} {
			for seed := uint64(1); seed <= 4; seed++ {
				specs = append(specs, mbfaa.NewSpec(
					mbfaa.WithModel(model),
					mbfaa.WithSystem(n, 2),
					mbfaa.WithInputs(inputs...),
					mbfaa.WithEpsilon(1e-3),
					mbfaa.WithAdversaryName(adv),
					mbfaa.WithSeed(seed),
					mbfaa.WithFixedRounds(30),
				))
			}
		}
	}
	eng := mbfaa.NewEngine()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunBatch(ctx, specs, mbfaa.BatchOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
