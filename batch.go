package mbfaa

import (
	"context"
	"fmt"
	"sync/atomic"

	"mbfaa/internal/core"
	"mbfaa/internal/mobile"
	"mbfaa/internal/sweep"
	"mbfaa/internal/trace"
)

// BatchOptions configures Engine.RunBatch / Engine.StreamBatch.
type BatchOptions struct {
	// Workers bounds the worker pool (0: all cores). Results are
	// bit-identical for any value: every job's PRNG seed is a function of
	// (Seed, spec index) alone, adversaries are constructed fresh inside
	// each run, and results land in a slice indexed by spec position —
	// never by completion order.
	Workers int
	// Seed is the base from which each spec's PRNG seed is derived as
	// DeriveSeed(Seed, index), unless the spec pinned its own via WithSeed
	// (ExplicitSeed).
	Seed uint64
	// Progress, when non-nil, receives one BatchProgress per completed
	// spec, in completion order. Sends block the pool's workers until the
	// consumer takes them (or the batch context is cancelled), so keep the
	// channel drained or buffered. RunBatch never closes it. StreamBatch
	// ignores this field — it installs its own returned channel.
	Progress chan<- BatchProgress
}

// BatchProgress is one streamed batch event: spec Index's run completed
// with Result or Err, and Done of Total specs have finished. StreamBatch
// additionally emits a terminal event with Index = -1 when the batch as a
// whole failed before or beyond any single spec (validation, shared
// instances, cancellation).
type BatchProgress struct {
	Index       int
	Done, Total int
	Result      *Result
	Err         error
}

// RunBatch executes one run per spec on a bounded worker pool and returns
// the results in spec order. It is the public face of the internal sweep
// engine: per-(seed, index) stream derivation, worker-count invariance and
// runner recycling behave exactly as in the experiment harness, so a batch
// is bit-identical for any Workers value and reproduces the same Results
// the specs would produce one-by-one through Engine.Run with the same
// seeds.
//
// Cancelling the context aborts in-flight runs at their next round
// boundary and skips queued specs; the returned error then satisfies
// errors.Is(err, context.Canceled). Specs are validated eagerly before
// anything runs: a *ConfigError names the offending spec, and a
// *SharedInstanceError rejects a stateful adversary instance (or a trace
// recorder) shared across specs, which would otherwise race across
// workers — use WithAdversaryFactory for stateful adversaries.
func (e *Engine) RunBatch(ctx context.Context, specs []Spec, opt BatchOptions) ([]*Result, error) {
	jobs, err := batchJobs(specs)
	if err != nil {
		return nil, err
	}
	var done atomic.Int64
	swOpt := sweep.Options{
		Seed:    opt.Seed,
		Workers: opt.Workers,
		Ctx:     ctx,
	}
	if opt.Progress != nil {
		progress, total := opt.Progress, len(specs)
		swOpt.OnJobDone = func(index int, res *core.Result, err error) {
			ev := BatchProgress{
				Index:  index,
				Done:   int(done.Add(1)),
				Total:  total,
				Result: res,
				Err:    err,
			}
			if ctx == nil {
				progress <- ev
				return
			}
			select {
			case progress <- ev:
			case <-ctx.Done():
				// The consumer may be gone; cancellation is already
				// aborting the batch.
			}
		}
	}
	return sweep.RunJobs(jobs, swOpt)
}

// StreamBatch runs the batch in the background and returns a channel of
// per-spec completion events, closed when the batch finishes. The channel
// is buffered for the whole batch, so workers never block on a slow
// consumer. If the batch as a whole fails (spec validation, shared
// instances, cancellation), the last event before the close carries the
// batch error with Index = -1. Any caller-supplied opt.Progress is
// replaced by the returned channel; for the results in spec order — or to
// deliver progress into your own channel — use RunBatch with
// BatchOptions.Progress instead.
func (e *Engine) StreamBatch(ctx context.Context, specs []Spec, opt BatchOptions) <-chan BatchProgress {
	ch := make(chan BatchProgress, len(specs)+1)
	opt.Progress = ch
	go func() {
		defer close(ch)
		if _, err := e.RunBatch(ctx, specs, opt); err != nil {
			ch <- BatchProgress{Index: -1, Total: len(specs), Err: err}
		}
	}()
	return ch
}

// batchJobs validates every spec and compiles the batch into sweep jobs,
// rejecting mutable instances shared across specs.
func batchJobs(specs []Spec) ([]sweep.Job, error) {
	jobs := make([]sweep.Job, len(specs))
	// Stateful adversary instances and trace recorders are per-run mutable
	// state; the same pointer under two specs is a cross-worker data race,
	// caught here by identity. (Stateless instances — rotating, random,
	// crash, stationary — are safely shareable and exempt.)
	seenAdv := make(map[Adversary]int)
	seenRec := make(map[*trace.Recorder]int)
	for i, spec := range specs {
		spec = spec.withDefaults()
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("mbfaa: batch spec %d%s: %w", i, specLabel(spec), err)
		}
		if spec.AdversaryFactory == nil && spec.Adversary != nil && IsStateful(spec.Adversary) {
			if first, dup := seenAdv[spec.Adversary]; dup {
				return nil, &SharedInstanceError{Kind: "adversary", Name: spec.Adversary.Name(), First: first, Second: i}
			}
			seenAdv[spec.Adversary] = i
		}
		if spec.Trace != nil {
			if first, dup := seenRec[spec.Trace]; dup {
				return nil, &SharedInstanceError{Kind: "trace recorder", First: first, Second: i}
			}
			seenRec[spec.Trace] = i
		}
		algo, err := spec.algorithm()
		if err != nil {
			return nil, fmt.Errorf("mbfaa: batch spec %d%s: %w", i, specLabel(spec), err)
		}
		factory, err := spec.adversaryFactory()
		if err != nil {
			return nil, fmt.Errorf("mbfaa: batch spec %d%s: %w", i, specLabel(spec), err)
		}
		jobs[i] = sweep.Job{
			Model:          spec.Model,
			N:              spec.N,
			F:              spec.F,
			Algorithm:      algo,
			Adversary:      factory,
			Inputs:         spec.Inputs,
			InitialCured:   spec.InitialCured,
			Epsilon:        spec.Epsilon,
			MaxRounds:      spec.MaxRounds,
			FixedRounds:    spec.FixedRounds,
			TrimOverride:   spec.TrimOverride,
			Seed:           spec.Seed,
			ExplicitSeed:   spec.ExplicitSeed,
			EnableCheckers: spec.Checkers,
			Recorder:       spec.Trace,
			Label:          spec.Label,
		}
	}
	return jobs, nil
}

// specLabel renders a spec's label for batch error messages.
func specLabel(s Spec) string {
	if s.Label == "" {
		return ""
	}
	return fmt.Sprintf(" (%s)", s.Label)
}

// DeriveSeed maps (base, index) to the PRNG seed the index-th spec of a
// batch runs with when it did not pin one via WithSeed. It is the same
// pure derivation the internal experiment harness uses, re-exported so a
// batch run can be reproduced one spec at a time: Engine.Run with
// WithSeed(DeriveSeed(base, i)) replays batch entry i bit-for-bit.
func DeriveSeed(base uint64, index int) uint64 { return sweep.DeriveSeed(base, index) }

// IsStateful reports whether the adversary instance carries per-run
// mutable state (splitter, greedy, mixed-mode) and therefore must be fresh
// per run — the property RunBatch enforces across specs. Stateless
// adversaries (rotating, random, crash, stationary) may be shared freely.
func IsStateful(a Adversary) bool { return mobile.IsStateful(a) }
