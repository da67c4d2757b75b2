package mobile

import (
	"math"
	"testing"

	"mbfaa/internal/mixedmode"
	"mbfaa/internal/msr"
	"mbfaa/internal/prng"
)

// scriptDigests pins every built-in adversary's send script: an FNV-1a
// fold of every At, Row and AppendRow read of the Directives its
// RoundDirectives fills, over the seeded view space scriptRounds replays.
// They were recorded while each built-in still carried per-pair
// FaultyValue/QueueValue methods and its native script read back entry for
// entry as the per-pair Adapter's did, so they pin the per-pair rules the
// built-ins were defined by.
var scriptDigests = map[string]uint64{
	"stationary": 0x709e67e6e5c6b5cb,
	"rotating":   0x709e67e6e5c6b5cb,
	"random":     0xf16c9c68601110a2,
	"crash":      0x70078783bf747cd6,
	"splitter":   0x1a5b52a15dc5fcd6,
	"greedy":     0x9a31ad07dbfa3189,
	"mixedmode":  0x4548e3626cc896d4,
}

// scripter is the send half of an adversary: what scriptRounds consults.
type scripter interface {
	Name() string
	RoundDirectives(rv *RoundView, d *Directives)
}

// scriptBuiltins returns a constructor for every built-in adversary.
func scriptBuiltins() []func() scripter {
	return []func() scripter{
		func() scripter { return NewStationary() },
		func() scripter { return NewRotating() },
		func() scripter { return NewRandom() },
		func() scripter { return NewCrash() },
		func() scripter { return NewSplitter() },
		func() scripter { return NewGreedy() },
		func() scripter { return NewMixedMode(mixedmode.Counts{Asymmetric: 1, Symmetric: 1, Benign: 1}) },
	}
}

// scriptRounds replays a fixed, seeded view space through fresh instances
// of one adversary and hands read every filled script. The space has 120
// scenarios of three consecutive rounds each, cycling through the four
// models, with n from 1 to 14, random mixes of correct, faulty and cured
// processes (no cured one under M4, where none sends), and votes that are
// NaN, +Inf or -Inf about one time in six. Each scenario consults one
// instance over its three rounds, so per-run state such as the splitter's
// pinned camps carries across them. The scripted senders are registered as
// the engine registers them: faulty processes, and under M3 cured ones as
// poisoned queues, ascending.
func scriptRounds(fresh func() scripter, read func(v *View, d *Directives)) {
	space := prng.New(20160627)
	algos := msr.All()
	models := AllModels()
	var d Directives
	for sc := 0; sc < 120; sc++ {
		model := models[sc%len(models)]
		n := 1 + space.Intn(14)
		f := space.Intn(n/2 + 1)
		algo := algos[space.Intn(len(algos))]
		seed := space.Uint64()
		adv := fresh()
		for round := 0; round < 3; round++ {
			votes := make([]float64, n)
			states := make([]State, n)
			var faulty, cured []int
			d.Reset(n)
			for i := range votes {
				switch x := space.Intn(18); {
				case x == 0:
					votes[i] = math.NaN()
				case x == 1:
					votes[i] = math.Inf(1)
				case x == 2:
					votes[i] = math.Inf(-1)
				default:
					votes[i] = float64(space.Intn(4*n)) / float64(2*n)
				}
				switch x := space.Intn(6); {
				case x == 0:
					states[i] = StateFaulty
					faulty = append(faulty, i)
					d.AddSender(i, false)
				case x == 1 && model != M4Buhrman:
					states[i] = StateCured
					cured = append(cured, i)
					if model == M3Sasaki {
						d.AddSender(i, true)
					}
				default:
					states[i] = StateCorrect
				}
			}
			v := &View{
				Round: round, Model: model, N: n, F: f,
				Tau: space.Intn(f + 2), Algo: algo,
				Votes: votes, States: states,
				Rng: prng.New(seed).Derive(uint64(round), 1),
			}
			d.Seal()
			adv.RoundDirectives(&RoundView{View: v, Faulty: faulty, Cured: cured, Base: sealedBase(v)}, &d)
			read(v, &d)
		}
	}
}

// scriptDigest folds every read of every script scriptRounds produces for
// one adversary: per receiver its Row form, count and value, its AppendRow
// patch, and each scripted sender's At entry.
func scriptDigest(fresh func() scripter) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		h ^= x
		h *= prime64
	}
	var row []float64
	scriptRounds(fresh, func(_ *View, d *Directives) {
		mix(uint64(d.Len()))
		for r := 0; r < d.N(); r++ {
			v, count, kind := d.Row(r)
			mix(uint64(kind))
			mix(uint64(count))
			if v != nil {
				mix(math.Float64bits(*v))
			}
			row = d.AppendRow(row[:0], r)
			mix(uint64(len(row)))
			for _, x := range row {
				mix(math.Float64bits(x))
			}
			for k := 0; k < d.Len(); k++ {
				x, omit := d.At(k, r)
				if omit {
					mix(1)
					continue
				}
				mix(2)
				mix(math.Float64bits(x))
			}
		}
	})
	return h
}

// TestDirectivesScriptDigests checks every built-in's send script against
// its pinned digest.
func TestDirectivesScriptDigests(t *testing.T) {
	builtins := scriptBuiltins()
	if len(builtins) != len(scriptDigests) {
		t.Fatalf("%d built-ins, %d pinned digests", len(builtins), len(scriptDigests))
	}
	for _, fresh := range builtins {
		name := fresh().Name()
		want, ok := scriptDigests[name]
		if !ok {
			t.Errorf("%s: no pinned script digest", name)
			continue
		}
		if got := scriptDigest(fresh); got != want {
			t.Errorf("%s: script digest %#016x, pinned %#016x", name, got, want)
		}
	}
}
