package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"mbfaa"
	"mbfaa/internal/analysis"
	"mbfaa/internal/golden"
	"mbfaa/internal/multiset"
)

// sim-n1024: one client calling Engine.Run in a closed loop on the
// BenchmarkEngineScaling shape — M1, n = 1024, f = 255, rotating adversary,
// FTM, 20 fixed rounds, inputs {i/n} (assigned to processes by a seeded
// permutation).
const (
	simN      = 1024
	simRounds = 20
	simWarmup = 3
)

type simInstance struct {
	engine *mbfaa.Engine
	spec   mbfaa.Spec
	digest uint64 // the warm-up run's; every measured run must match it
}

func setupSim(seed uint64) (instance, error) {
	inputs := make([]float64, simN)
	for i, p := range rand.New(rand.NewPCG(seed, 0x51)).Perm(simN) {
		inputs[i] = float64(p) / simN
	}
	spec := mbfaa.NewSpec(
		mbfaa.WithModel(mbfaa.M1),
		mbfaa.WithSystem(simN, mbfaa.MaxFaulty(mbfaa.M1, simN)),
		mbfaa.WithInputs(inputs...),
		mbfaa.WithEpsilon(1e-9),
		mbfaa.WithFixedRounds(simRounds),
		mbfaa.WithAlgorithm(mbfaa.FTM),
		mbfaa.WithAdversaryName("rotating"),
		mbfaa.WithSeed(seed),
	)
	s := &simInstance{engine: mbfaa.NewEngine(), spec: spec}
	if err := checkGolden(s.engine); err != nil {
		return nil, err
	}
	// Warm-up runs fill the runner pool. The first must meet the paper's
	// guarantees and the others must repeat it bit for bit, so the digest
	// every measured run is held to is a correct run's.
	for i := 0; i < simWarmup; i++ {
		res, err := s.engine.Run(context.Background(), spec)
		if err != nil {
			return nil, err
		}
		d := golden.Digest(res)
		switch {
		case i == 0:
			if err := s.check(res); err != nil {
				return nil, fmt.Errorf("warm-up run: %w", err)
			}
		case d != s.digest:
			return nil, fmt.Errorf("warm-up runs disagree: digest %x then %x", s.digest, d)
		}
		s.digest = d
	}
	return s, nil
}

// checkGolden runs the repository's pinned golden cases that vote with FTM
// through the engine and compares each digest with the recorded one. It is
// a bit-exact reference for the vote path this workload times, so a change
// that alters votes but still contracts and stays in range fails set-up.
func checkGolden(engine *mbfaa.Engine) error {
	cases, err := golden.Cases()
	if err != nil {
		return err
	}
	for _, gc := range cases {
		cfg := gc.Cfg
		if cfg.Algorithm.Name() != "ftm" {
			continue
		}
		res, err := engine.Run(context.Background(), mbfaa.Spec{
			Model: cfg.Model, N: cfg.N, F: cfg.F, Algorithm: cfg.Algorithm,
			Adversary: cfg.Adversary, Inputs: cfg.Inputs, Epsilon: cfg.Epsilon,
			MaxRounds: cfg.MaxRounds, FixedRounds: cfg.FixedRounds,
			Seed: cfg.Seed, ExplicitSeed: true, InitialCured: cfg.InitialCured,
		})
		if err != nil {
			return fmt.Errorf("golden case %s: %w", gc.Key, err)
		}
		if d := golden.Digest(res); d != golden.Digests[gc.Key] {
			return fmt.Errorf("golden case %s: digest %x, pinned %x", gc.Key, d, golden.Digests[gc.Key])
		}
	}
	return nil
}

// check holds a run to the paper's guarantees: every decision lies in the
// range of the correct inputs, and every round shrinks the correct
// processes' diameter by at least the algorithm's contraction factor for
// the model. Under M1 the n-f processes the agents do not occupy vote,
// trimming f values from each end with f asymmetric senders, so FTM must
// at least halve the diameter each round. This holds the n = 1024 run
// itself to the paper; checkGolden is the bit-exact check.
func (s *simInstance) check(res *mbfaa.Result) error {
	if !res.Valid() {
		return errors.New("a decision lies outside the correct inputs' range")
	}
	if len(res.DiameterSeries) != simRounds+1 {
		return fmt.Errorf("%d diameters recorded over %d fixed rounds", len(res.DiameterSeries), simRounds)
	}
	f := s.spec.F
	want, ok := s.spec.Algorithm.Contraction(s.spec.N-f, s.spec.Model.Trim(f), s.spec.Model.AsymmetricSenders(f))
	if !ok {
		return errors.New("the model gives this system no contraction guarantee")
	}
	worst, err := analysis.Series(res.DiameterSeries).WorstContraction()
	if err != nil {
		return err
	}
	if worst > want+1e-9 {
		return fmt.Errorf("a round contracted the diameter by %.6g; the guarantee is %.6g", worst, want)
	}
	return nil
}

func (s *simInstance) provenance() map[string]any {
	return map[string]any{"n": simN, "f": s.spec.F, "rounds": simRounds, "op": "one Engine.Run", "throughput_counts": "rounds"}
}

func (s *simInstance) Close() error { return nil }

// simSpans accumulates the traced layer time of one pass. The engine may
// reach Apply from concurrent vote workers, so every field is atomic.
type simSpans struct {
	dirNs, dirCalls     atomic.Int64
	applyNs, applyCalls atomic.Int64
}

// timedAdversary forwards to a RoundAdversary and times RoundDirectives,
// the once-per-round consultation.
type timedAdversary struct {
	mbfaa.RoundAdversary
	spans *simSpans
}

func (a timedAdversary) RoundDirectives(rv *mbfaa.RoundView, d *mbfaa.Directives) {
	start := time.Now()
	a.RoundAdversary.RoundDirectives(rv, d)
	a.spans.dirNs.Add(int64(time.Since(start)))
	a.spans.dirCalls.Add(1)
}

// Unwrap exposes the wrapped adversary to the engine's marker lookups.
func (a timedAdversary) Unwrap() mbfaa.Adversary { return a.RoundAdversary }

// timedAlgorithm forwards to an Algorithm and times Apply, the per-receiver
// vote.
type timedAlgorithm struct {
	mbfaa.Algorithm
	spans *simSpans
}

func (a timedAlgorithm) Apply(m multiset.Multiset, tau int) (float64, error) {
	start := time.Now()
	v, err := a.Algorithm.Apply(m, tau)
	a.spans.applyNs.Add(int64(time.Since(start)))
	a.spans.applyCalls.Add(1)
	return v, err
}

// tracedSpec wraps the spec's algorithm and adversary in the timing
// forwarders.
func (s *simInstance) tracedSpec(spans *simSpans) (mbfaa.Spec, error) {
	factory, err := mbfaa.AdversaryFactoryByName(s.spec.AdversaryName)
	if err != nil {
		return mbfaa.Spec{}, err
	}
	spec := s.spec
	spec.AdversaryName = ""
	spec.AdversaryFactory = func() mbfaa.Adversary {
		// AdversaryFactoryByName hands out batch-ready RoundAdversaries.
		return timedAdversary{factory().(mbfaa.RoundAdversary), spans}
	}
	spec.Algorithm = timedAlgorithm{s.spec.Algorithm, spans}
	return spec, nil
}

// exactCounts is the forwarders' fidelity check: the engine consults the
// adversary once per round, and in M1 each of the n-f processes the agents
// do not occupy votes once per round (occupied processes do not vote).
func (s *simInstance) exactCounts(rounds int, consults, applies int64) bool {
	return consults == int64(rounds) && applies == int64((s.spec.N-s.spec.F)*rounds)
}

func (s *simInstance) measure(d time.Duration, traced bool) (*phase, error) {
	spec := s.spec
	spans := &simSpans{}
	if traced {
		var err error
		if spec, err = s.tracedSpec(spans); err != nil {
			return nil, err
		}
	}
	p := &phase{meter: newWindowMeter(windowEvery, processClock, hostProbe)}
	var runNs, rounds int64
	for start := time.Now(); time.Since(start) < d; {
		dirs, applies := spans.dirCalls.Load(), spans.applyCalls.Load()
		now := time.Now()
		res, err := s.engine.Run(context.Background(), spec)
		end := time.Now()
		p.attempted++
		switch {
		case err != nil || golden.Digest(res) != s.digest:
			// The traced run must also reproduce the untraced votes.
			p.failed++
		case traced && !s.exactCounts(res.Rounds, spans.dirCalls.Load()-dirs, spans.applyCalls.Load()-applies):
			p.failed++
		default:
			rounds += int64(res.Rounds)
		}
		runNs += int64(end.Sub(now))
		p.meter.done(end, ms(end.Sub(now)))
	}
	if traced {
		ops := p.attempted
		p.layers = map[string]float64{
			"core.self_ms_per_op":            perOp(ms(time.Duration(runNs-spans.dirNs.Load()-spans.applyNs.Load())), ops),
			"mobile.directives_us_per_round": ratio(float64(spans.dirNs.Load())/1e3, float64(rounds)),
			"mobile.consults_per_round":      ratio(float64(spans.dirCalls.Load()), float64(rounds)),
			"msr.apply_ms_per_op":            perOp(ms(time.Duration(spans.applyNs.Load())), ops),
			"msr.applies_per_op":             perOp(float64(spans.applyCalls.Load()), ops),
		}
	}
	return p, nil
}
