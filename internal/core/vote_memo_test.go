package core

import (
	"math"
	"testing"

	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
	"mbfaa/internal/multiset"
)

// memoRound is one hand-built round for the vote memo: the symmetric base,
// m scripted senders whose script fills the directives rows, the
// receivers' previous values (their count is n) and the receivers faulty
// during computation.
type memoRound struct {
	algo   msr.Algorithm
	tau    int
	base   []float64
	m      int
	prev   []float64
	faulty []int
	script func(d *mobile.Directives)
}

// vote plans r over sc and votes it through voteRange, the memoized loop,
// and receiver by receiver through computeVoteKernel, the reference. It
// returns both vote vectors (NaN for the faulty) and their errors.
func (r memoRound) vote(sc *scratch) (got, want []float64, gotErr, wantErr error) {
	n := len(r.prev)
	if err := sc.ensure(n); err != nil {
		return nil, nil, err, err
	}
	st := &runState{
		cfg:      Config{N: n, Algorithm: r.algo},
		sc:       sc,
		votes:    sc.votes[:n],
		newVotes: sc.newVotes[:n],
		faulty:   &sc.faulty,
	}
	copy(st.votes, r.prev)
	st.faulty.reset(n)
	for _, p := range r.faulty {
		st.faulty.mark(p)
	}
	kp := &sc.kern
	kp.reset()
	for _, v := range r.base {
		kp.addSymmetric(v)
	}
	if err := kp.sealBase(); err != nil {
		return nil, nil, err, err
	}
	d := &sc.dirs
	d.Reset(n)
	for k := 0; k < r.m; k++ {
		d.AddSender(n+k, false) // any ascending ids: voteRange reads rows only
	}
	d.Seal()
	r.script(d)
	kp.dirs = d
	if cap(sc.pvals) < r.m {
		sc.pvals = make([]float64, 0, r.m)
	}

	want = make([]float64, n)
	for i := range want {
		want[i] = math.NaN()
		if st.faulty.has(i) {
			continue
		}
		received, err := kp.received(nil, i)
		if err == nil {
			want[i], err = computeVoteKernel(r.algo, r.tau, received, r.prev[i])
		}
		if err != nil && wantErr == nil {
			wantErr = err
		}
	}
	gotErr = st.voteRange(0, r.tau, kp)
	return append([]float64(nil), st.newVotes...), want, gotErr, wantErr
}

// check votes r and fails unless voteRange gives the reference's votes bit
// for bit; it returns them.
func (r memoRound) check(t *testing.T, sc *scratch) []float64 {
	t.Helper()
	got, want, gotErr, wantErr := r.vote(sc)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: voteRange error %v, reference error %v", r.algo.Name(), gotErr, wantErr)
	}
	if gotErr == nil && !sameVoteBits(got, want) {
		t.Fatalf("%s: voteRange votes %v, per-receiver reference %v", r.algo.Name(), got, want)
	}
	return want
}

// sameVoteBits compares two vote vectors bit for bit.
func sameVoteBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

var negZero = math.Copysign(0, -1)

// TestKernelVoteMemoSignedZeros: broadcast rows of +0 and −0 compare equal
// but must never share a memo slot — over an empty base FTM and Median
// vote +0 on the one and −0 on the other (FTA's and Dolev's sums start at
// +0). Receivers interleave +0, −0 and omitted rows.
func TestKernelVoteMemoSignedZeros(t *testing.T) {
	for _, algo := range msr.All() {
		votes := memoRound{
			algo: algo, tau: 1, m: 3,
			prev: []float64{7, 7, 7, 7, 7, 7},
			script: func(d *mobile.Directives) {
				for r := 0; r < d.N(); r++ {
					switch r % 3 {
					case 0:
						d.SetRow(r, 0)
					case 1:
						d.SetRow(r, negZero)
					}
				}
			},
		}.check(t, &scratch{})
		switch algo.(type) {
		case msr.FTM, msr.Median:
		default:
			continue
		}
		for r, v := range votes {
			wantNeg := r%3 == 1
			if r%3 != 2 && (v != 0 || math.Signbit(v) != wantNeg) {
				t.Fatalf("%s: receiver %d voted %v (sign bit %v), want a zero with sign bit %v",
					algo.Name(), r, v, math.Signbit(v), wantNeg)
			}
		}
	}
}

// TestKernelVoteMemoBroadcastVsOmitted: a broadcast row of 0 — whose value
// bits are all zero — must never share a slot with an omitted row, the
// bare base.
func TestKernelVoteMemoBroadcastVsOmitted(t *testing.T) {
	for _, algo := range msr.All() {
		votes := memoRound{
			algo: algo, tau: 1, m: 2,
			base: []float64{1, 2, 3},
			prev: []float64{9, 9, 9, 9, 9, 9, 9},
			script: func(d *mobile.Directives) {
				for r := 0; r < d.N(); r += 2 {
					d.SetRow(r, 0)
				}
			},
		}.check(t, &scratch{})
		if votes[0] == votes[1] {
			t.Fatalf("%s: broadcast and omitted rows voted alike (%v): the test cannot tell them apart", algo.Name(), votes[0])
		}
	}
}

// TestKernelVoteMemoKeysOnCount: equal broadcast values with different
// sender counts are different multisets. Within one round every broadcast
// row has the script's sender count, so the key's count is checked on the
// memo itself, and the memo's round scope by two rounds over one scratch
// that broadcast the same value from two and from four senders.
func TestKernelVoteMemoKeysOnCount(t *testing.T) {
	v := 1.0
	var memo voteMemo
	s := memo.find(&v, 2, mobile.RowBroadcast)
	s.vote, s.full = 0.5, true
	if other := memo.find(&v, 3, mobile.RowBroadcast); other == s || other.full {
		t.Fatal("a broadcast of one value from 3 senders found the slot voted for 2 senders")
	}
	if again := memo.find(&v, 2, mobile.RowBroadcast); again != s {
		t.Fatal("a broadcast of the same value and count missed its slot")
	}

	sc := &scratch{}
	var first []float64
	for _, m := range []int{2, 4} {
		votes := memoRound{
			algo: msr.FTA{}, tau: 1, m: m,
			base: []float64{0, 0, 0},
			prev: []float64{5, 5, 5, 5},
			script: func(d *mobile.Directives) {
				for r := 0; r < d.N(); r++ {
					d.SetRow(r, 1)
				}
			},
		}.check(t, sc)
		if first == nil {
			first = votes
		} else if first[0] == votes[0] {
			t.Fatalf("2 and 4 senders of 1 voted alike (%v): the test cannot tell them apart", votes[0])
		}
	}
}

// TestKernelVoteMemoEmptyBase: with an empty base an omitted row receives
// nothing, and each receiver keeps its own previous value; broadcast rows
// over the empty base still vote on their constant run.
func TestKernelVoteMemoEmptyBase(t *testing.T) {
	for _, algo := range msr.All() {
		prev := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
		votes := memoRound{
			algo: algo, tau: 0, m: 2,
			prev:   prev,
			faulty: []int{4},
			script: func(d *mobile.Directives) {
				d.SetRow(2, 3)
				d.SetRow(5, 3)
			},
		}.check(t, &scratch{})
		for _, r := range []int{0, 1, 3} {
			if votes[r] != prev[r] {
				t.Fatalf("%s: omitted receiver %d over an empty base voted %v, want its previous %v", algo.Name(), r, votes[r], prev[r])
			}
		}
		if votes[2] != 3 || votes[5] != 3 || !math.IsNaN(votes[4]) {
			t.Fatalf("%s: votes %v, want 3 for the broadcast rows and NaN for the faulty receiver", algo.Name(), votes)
		}
	}
}

// TestKernelVoteMemoExplicitRows: explicit rows are voted per receiver,
// also where an explicit row starts out as a memoized broadcast row.
func TestKernelVoteMemoExplicitRows(t *testing.T) {
	for _, algo := range msr.All() {
		votes := memoRound{
			algo: algo, tau: 1, m: 3,
			base: []float64{0, 1},
			prev: []float64{0, 0, 0, 0, 0},
			script: func(d *mobile.Directives) {
				for r := 0; r < d.N(); r++ {
					d.SetRow(r, 1)
					d.Set(0, r, float64(r)) // explicit: r r 1
					d.Set(1, r, float64(r))
				}
			},
		}.check(t, &scratch{})
		if votes[0] == votes[4] {
			t.Fatalf("%s: explicit rows 0 and 4 voted alike (%v): the test cannot tell them apart", algo.Name(), votes[0])
		}
	}
}

// countingAlgorithm is an Algorithm from outside package msr that counts
// its Apply calls: its Apply is deterministic but not free of side
// effects, so the engine must call it once per receiver.
type countingAlgorithm struct {
	msr.FTM
	calls *int
}

func (c countingAlgorithm) Apply(received multiset.Multiset, tau int) (float64, error) {
	*c.calls++
	return c.FTM.Apply(received, tau)
}

// TestKernelVoteMemoImpureAlgorithm: an algorithm msr.Pure does not know
// is applied exactly once per non-faulty receiver per round, and the
// memoized FTM run votes bit for bit as the per-receiver one.
func TestKernelVoteMemoImpureAlgorithm(t *testing.T) {
	if msr.Pure(countingAlgorithm{}) {
		t.Fatal("msr.Pure reports a wrapper from outside package msr as pure")
	}
	const n, rounds = 64, 12
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(i*37%n) / n
	}
	for _, model := range mobile.AllModels() {
		f := model.MaxFaulty(n)
		cfg := Config{
			Model:       model,
			N:           n,
			F:           f,
			Algorithm:   msr.FTM{},
			Adversary:   mobile.NewRotating(),
			Inputs:      inputs,
			Epsilon:     1e-12,
			FixedRounds: rounds,
		}
		pure, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		cfg.Algorithm = countingAlgorithm{calls: &calls}
		counted, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := (n - f) * rounds; calls != want {
			t.Errorf("%v: Apply ran %d times, want (N−F)·rounds = %d", model, calls, want)
		}
		if !sameVoteBits(pure.Votes, counted.Votes) || !sameVoteBits(pure.DiameterSeries, counted.DiameterSeries) {
			t.Errorf("%v: memoized votes %v, per-receiver votes %v", model, pure.Votes, counted.Votes)
		}
	}
}

// memoPalette is the value pool of FuzzKernelVoteMemo: both zeros, both
// infinities, and plain values that repeat.
var memoPalette = []float64{0, negZero, 1, -1, 0.5, 0.25, 2, math.Inf(1), math.Inf(-1)}

// FuzzKernelVoteMemo checks voteRange's memoized votes against the
// per-receiver computeVoteKernel reference, bit for bit, on fuzzed rounds.
// Each byte of base is one base value (the base may be empty); each byte
// of rows is one receiver: its low two bits choose an omitted, broadcast
// or explicit row or a faulty receiver, the rest a palette value (for an
// explicit row, the first of its per-sender entries, a NaN-free palette
// walk with every third sender omitted).
func FuzzKernelVoteMemo(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(2), []byte{}, []byte{1, 5, 0, 1, 5, 0})
	f.Add(uint8(0), uint8(0), uint8(3), []byte{0, 4, 8}, []byte{1, 5, 2, 3, 0, 9, 13})
	f.Add(uint8(2), uint8(2), uint8(1), []byte{1, 2}, []byte{0, 0, 6, 10, 14, 18})
	f.Add(uint8(3), uint8(1), uint8(4), []byte{}, []byte{0, 2, 3, 1})
	sc := &scratch{}
	f.Fuzz(func(t *testing.T, algo, tau, m uint8, base, rows []byte) {
		if len(rows) > 24 {
			rows = rows[:24]
		}
		if len(base) > 24 {
			base = base[:24]
		}
		if len(rows) == 0 {
			return
		}
		r := memoRound{
			algo: msr.All()[int(algo)%len(msr.All())],
			tau:  int(tau % 4),
			m:    1 + int(m%6),
			prev: make([]float64, len(rows)),
		}
		for _, b := range base {
			r.base = append(r.base, memoPalette[int(b)%len(memoPalette)])
		}
		for i, b := range rows {
			r.prev[i] = float64(i) / 8
			if b&3 == 3 {
				r.faulty = append(r.faulty, i)
			}
		}
		r.script = func(d *mobile.Directives) {
			for i, b := range rows {
				v := memoPalette[int(b>>2)%len(memoPalette)]
				switch b & 3 {
				case 1:
					d.SetRow(i, v)
				case 2:
					for k := 0; k < d.Len(); k++ {
						if k%3 == 2 {
							d.Omit(k, i)
						} else {
							d.Set(k, i, memoPalette[(int(b>>2)+k)%len(memoPalette)])
						}
					}
				}
			}
		}
		r.check(t, sc)
	})
}
