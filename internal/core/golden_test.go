package core_test

import (
	"fmt"
	"os"
	"sort"
	"testing"

	"mbfaa/internal/core"
	"mbfaa/internal/golden"
)

// The golden-determinism suite pins the exact outputs of Run for a matrix
// of {model} × {algorithm} × {adversary} × {seed} configurations. The case
// matrix and the pinned digests live in internal/golden (shared with the
// public facade's equivalence suite): the digests were recorded from the
// pre-refactor (PR 1) reference engine before the PR-2 scratch-reuse
// optimization landed, and must never change.
// Regenerate with MBFAA_GOLDEN_GEN=1 go test -run TestGoldenDigests -v
// ONLY when a deliberate, reviewed semantic change is being made.

// goldenCases builds the shared pinned matrix, failing the test on a
// construction error.
func goldenCases(t *testing.T) []golden.Case {
	t.Helper()
	cases, err := golden.Cases()
	if err != nil {
		t.Fatal(err)
	}
	return cases
}

// TestGoldenDigests asserts the deterministic engine reproduces the pinned
// digests exactly. With MBFAA_GOLDEN_GEN=1 it prints the current digests in
// Go-literal form instead of asserting, for deliberate regeneration.
func TestGoldenDigests(t *testing.T) {
	cases := goldenCases(t)
	gen := os.Getenv("MBFAA_GOLDEN_GEN") != ""
	got := make(map[string]uint64, len(cases))
	for _, gc := range cases {
		res, err := core.Run(gc.Cfg)
		if err != nil {
			t.Fatalf("%s: %v", gc.Key, err)
		}
		got[gc.Key] = golden.Digest(res)
	}
	if gen {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("\t%q: 0x%016x,\n", k, got[k])
		}
		return
	}
	if len(golden.Digests) == 0 {
		t.Fatal("golden digest table is empty; regenerate with MBFAA_GOLDEN_GEN=1")
	}
	for _, gc := range cases {
		want, ok := golden.Digests[gc.Key]
		if !ok {
			t.Errorf("%s: no pinned digest (regenerate the table)", gc.Key)
			continue
		}
		if got[gc.Key] != want {
			t.Errorf("%s: digest 0x%016x, pinned 0x%016x — engine output changed", gc.Key, got[gc.Key], want)
		}
	}
}

// TestGoldenRunnerReuse asserts that a single Runner executing the entire
// golden matrix back-to-back — recycling its scratch state between runs —
// still reproduces every pinned digest. This is the regression test for
// cross-run scratch contamination.
func TestGoldenRunnerReuse(t *testing.T) {
	r := core.NewRunner()
	for _, gc := range goldenCases(t) {
		res, err := r.Run(gc.Cfg)
		if err != nil {
			t.Fatalf("%s: %v", gc.Key, err)
		}
		if d := golden.Digest(res); d != golden.Digests[gc.Key] {
			t.Errorf("%s: reused-Runner digest 0x%016x, pinned 0x%016x", gc.Key, d, golden.Digests[gc.Key])
		}
	}
}
