package mbfaa_test

import (
	"context"
	"errors"
	"testing"

	"mbfaa"
	"mbfaa/internal/golden"
	"mbfaa/internal/mobile"
)

// batchSpecs builds a small heterogeneous batch: every model, two
// adversaries each, seeds left to (BatchOptions.Seed, index) derivation.
func batchSpecs() []mbfaa.Spec {
	var specs []mbfaa.Spec
	for _, model := range mbfaa.Models() {
		n := mbfaa.RequiredN(model, 2) + 1
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = float64(i) / float64(n)
		}
		for _, adv := range []string{"rotating", "random"} {
			specs = append(specs, mbfaa.NewSpec(
				mbfaa.WithModel(model),
				mbfaa.WithSystem(n, 2),
				mbfaa.WithInputs(inputs...),
				mbfaa.WithEpsilon(1e-3),
				mbfaa.WithAdversaryName(adv),
				mbfaa.WithFixedRounds(10),
			))
		}
	}
	return specs
}

// TestRunBatchDerivesSeedsLikeEngineRun asserts the batch seed contract:
// entry i of a batch is bit-identical to a standalone Engine.Run of the
// same spec with WithSeed(DeriveSeed(base, i)).
func TestRunBatchDerivesSeedsLikeEngineRun(t *testing.T) {
	const base = 42
	eng := mbfaa.NewEngine()
	batch, err := eng.RunBatch(context.Background(), batchSpecs(), mbfaa.BatchOptions{Seed: base})
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range batchSpecs() {
		spec.Seed = mbfaa.DeriveSeed(base, i)
		spec.ExplicitSeed = true
		solo, err := eng.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if golden.Digest(solo) != golden.Digest(batch[i]) {
			t.Errorf("spec %d: standalone digest 0x%016x != batch digest 0x%016x",
				i, golden.Digest(solo), golden.Digest(batch[i]))
		}
	}
}

func TestRunBatchWorkerCountInvariance(t *testing.T) {
	eng := mbfaa.NewEngine()
	ref, err := eng.RunBatch(context.Background(), batchSpecs(), mbfaa.BatchOptions{Seed: 9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5, 16} {
		got, err := eng.RunBatch(context.Background(), batchSpecs(), mbfaa.BatchOptions{Seed: 9, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ref {
			if golden.Digest(ref[i]) != golden.Digest(got[i]) {
				t.Errorf("workers=%d spec %d: digest diverged from workers=1", workers, i)
			}
		}
	}
}

func TestRunBatchRejectsSharedStatefulAdversary(t *testing.T) {
	shared := mobile.NewSplitter()
	specs := batchSpecs()[:2]
	for i := range specs {
		specs[i].Adversary = shared
		specs[i].AdversaryName = ""
	}
	eng := mbfaa.NewEngine()
	_, err := eng.RunBatch(context.Background(), specs, mbfaa.BatchOptions{})
	if !errors.Is(err, mbfaa.ErrSharedInstance) {
		t.Fatalf("err = %v, want ErrSharedInstance", err)
	}
	var se *mbfaa.SharedInstanceError
	if !errors.As(err, &se) {
		t.Fatalf("err %T is not *SharedInstanceError", err)
	}
	if se.First != 0 || se.Second != 1 || se.Name != "splitter" {
		t.Errorf("SharedInstanceError = %+v, want first=0 second=1 name=splitter", se)
	}
}

func TestRunBatchAllowsStatelessSharingAndUniqueStateful(t *testing.T) {
	specs := batchSpecs()[:3]
	shared := mobile.NewRotating() // stateless: sharing is fine
	specs[0].Adversary, specs[0].AdversaryName = shared, ""
	specs[1].Adversary, specs[1].AdversaryName = shared, ""
	specs[2].Adversary, specs[2].AdversaryName = mobile.NewGreedy(), "" // stateful but unique
	eng := mbfaa.NewEngine()
	if _, err := eng.RunBatch(context.Background(), specs, mbfaa.BatchOptions{}); err != nil {
		t.Fatalf("legitimate batch rejected: %v", err)
	}
}

func TestRunBatchRejectsSharedRecorder(t *testing.T) {
	rec := mbfaa.NewTrace()
	specs := batchSpecs()[:2]
	specs[0].Trace = rec
	specs[1].Trace = rec
	eng := mbfaa.NewEngine()
	_, err := eng.RunBatch(context.Background(), specs, mbfaa.BatchOptions{})
	var se *mbfaa.SharedInstanceError
	if !errors.As(err, &se) || se.Kind != "trace recorder" {
		t.Fatalf("err = %v, want *SharedInstanceError for the trace recorder", err)
	}
}

func TestRunBatchProgressEvents(t *testing.T) {
	specs := batchSpecs()
	progress := make(chan mbfaa.BatchProgress, len(specs))
	eng := mbfaa.NewEngine()
	results, err := eng.RunBatch(context.Background(), specs, mbfaa.BatchOptions{Progress: progress, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	close(progress)
	seen := make(map[int]bool)
	var maxDone int
	for ev := range progress {
		if ev.Err != nil {
			t.Errorf("spec %d reported error: %v", ev.Index, ev.Err)
		}
		if seen[ev.Index] {
			t.Errorf("spec %d reported twice", ev.Index)
		}
		seen[ev.Index] = true
		if ev.Total != len(specs) {
			t.Errorf("event total %d, want %d", ev.Total, len(specs))
		}
		if ev.Done > maxDone {
			maxDone = ev.Done
		}
		if ev.Result == nil || golden.Digest(ev.Result) != golden.Digest(results[ev.Index]) {
			t.Errorf("spec %d: progress result does not match returned slice", ev.Index)
		}
	}
	if len(seen) != len(specs) || maxDone != len(specs) {
		t.Errorf("saw %d events (max done %d), want %d", len(seen), maxDone, len(specs))
	}
}

func TestStreamBatchDeliversAllAndCloses(t *testing.T) {
	specs := batchSpecs()
	eng := mbfaa.NewEngine()
	count := 0
	for ev := range eng.StreamBatch(context.Background(), specs, mbfaa.BatchOptions{Workers: 2}) {
		if ev.Index < 0 || ev.Err != nil {
			t.Fatalf("unexpected batch failure event: %+v", ev)
		}
		count++
	}
	if count != len(specs) {
		t.Errorf("streamed %d events, want %d", count, len(specs))
	}
}

func TestStreamBatchReportsBatchError(t *testing.T) {
	specs := []mbfaa.Spec{{}} // invalid: no inputs
	eng := mbfaa.NewEngine()
	var last mbfaa.BatchProgress
	for ev := range eng.StreamBatch(context.Background(), specs, mbfaa.BatchOptions{}) {
		last = ev
	}
	if last.Index != -1 || !errors.Is(last.Err, mbfaa.ErrSpec) {
		t.Fatalf("terminal event = %+v, want Index=-1 wrapping ErrSpec", last)
	}
}

// TestRunBatchCancel cancels the batch context from inside the first
// spec's run (deterministically, at its 50th placement) and asserts the
// whole batch aborts with context.Canceled: the cancelling run stops at
// its next round boundary, in-flight siblings abort at theirs, and queued
// specs are skipped.
func TestRunBatchCancel(t *testing.T) {
	specs := batchSpecs()
	for i := range specs {
		specs[i].FixedRounds = 100000 // far beyond what a cancelled batch may run
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	specs[0].Adversary = &cancellingAdversary{inner: mobile.NewRotating(), cancelAt: 50, cancel: cancel}
	specs[0].AdversaryName = ""
	eng := mbfaa.NewEngine()
	_, err := eng.RunBatch(ctx, specs, mbfaa.BatchOptions{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
