package mixedmode

import "fmt"

// Observation is what one receiver saw from one sender in one round.
type Observation struct {
	// Value is the received value; meaningless when Omitted.
	Value float64
	// Omitted is true when no message arrived from the sender (detected in
	// a synchronous round by the end of the receive phase).
	Omitted bool
}

// Matrix is a full observation matrix for one round: Matrix[r][s] is what
// receiver r saw from sender s. It is the raw material of the Table 1
// reproduction: the classifier labels each sender's behaviour purely from
// how the non-faulty receivers perceived it.
type Matrix struct {
	n   int
	obs [][]Observation
}

// NewMatrix returns an empty n×n observation matrix with every entry marked
// Omitted (no message observed yet).
func NewMatrix(n int) (*Matrix, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mixedmode: matrix size %d must be positive", n)
	}
	obs := make([][]Observation, n)
	backing := make([]Observation, n*n)
	for i := range obs {
		obs[i] = backing[i*n : (i+1)*n]
		for j := range obs[i] {
			obs[i][j] = Observation{Omitted: true}
		}
	}
	return &Matrix{n: n, obs: obs}, nil
}

// N returns the matrix dimension.
func (m *Matrix) N() int { return m.n }

// Row returns receiver's observation row as a read-only view of the
// matrix's backing store — no copy. The engine never votes on a matrix:
// it votes on its base+patch kernel plan and materializes a matrix from
// that plan only for OnRound snapshots, freshly allocated per round.
func (m *Matrix) Row(receiver int) ([]Observation, error) {
	if receiver < 0 || receiver >= m.n {
		return nil, fmt.Errorf("mixedmode: row %d out of range for n=%d", receiver, m.n)
	}
	return m.obs[receiver], nil
}

// Record stores what receiver saw from sender.
func (m *Matrix) Record(receiver, sender int, o Observation) error {
	if receiver < 0 || receiver >= m.n || sender < 0 || sender >= m.n {
		return fmt.Errorf("mixedmode: record (%d,%d) out of range for n=%d", receiver, sender, m.n)
	}
	m.obs[receiver][sender] = o
	return nil
}

// At returns what receiver saw from sender.
func (m *Matrix) At(receiver, sender int) (Observation, error) {
	if receiver < 0 || receiver >= m.n || sender < 0 || sender >= m.n {
		return Observation{}, fmt.Errorf("mixedmode: at (%d,%d) out of range for n=%d", receiver, sender, m.n)
	}
	return m.obs[receiver][sender], nil
}

// ClassifySender labels sender's behaviour from the observations of the
// given receivers (which must be the non-faulty receivers; observations by
// faulty processes are meaningless). expected is the value the sender would
// have broadcast had it followed the protocol.
//
// The rules mirror the model definitions:
//
//   - omitted at every receiver            → benign (self-evident to all);
//   - same value v at every receiver, v == expected → correct;
//   - same value v at every receiver, v != expected → symmetric;
//   - anything else (mixed values, partial omissions) → asymmetric.
func (m *Matrix) ClassifySender(sender int, receivers []int, expected float64) (Class, error) {
	if sender < 0 || sender >= m.n {
		return 0, fmt.Errorf("mixedmode: sender %d out of range for n=%d", sender, m.n)
	}
	if len(receivers) == 0 {
		return 0, fmt.Errorf("mixedmode: classification needs at least one receiver")
	}
	first := true
	var v float64
	omittedAll, omittedAny, mixed := true, false, false
	for _, r := range receivers {
		if r < 0 || r >= m.n {
			return 0, fmt.Errorf("mixedmode: receiver %d out of range for n=%d", r, m.n)
		}
		o := m.obs[r][sender]
		if o.Omitted {
			omittedAny = true
			continue
		}
		omittedAll = false
		if first {
			v, first = o.Value, false
			continue
		}
		if o.Value != v {
			mixed = true
		}
	}
	switch {
	case omittedAll:
		return ClassBenign, nil
	case mixed || omittedAny:
		// A value visible to some receivers but not others, or differing
		// values, is perceived differently by different non-faulty
		// processes: asymmetric by definition.
		return ClassAsymmetric, nil
	case v == expected:
		return ClassCorrect, nil
	default:
		return ClassSymmetric, nil
	}
}

// Census classifies every sender against its expected value and tallies the
// result. expected[s] is sender s's protocol-prescribed broadcast value;
// receivers must be the non-faulty receivers for the round.
func (m *Matrix) Census(receivers []int, expected []float64) (Counts, []Class, error) {
	if len(expected) != m.n {
		return Counts{}, nil, fmt.Errorf("mixedmode: expected %d values, got %d", m.n, len(expected))
	}
	var counts Counts
	classes := make([]Class, m.n)
	for s := 0; s < m.n; s++ {
		c, err := m.ClassifySender(s, receivers, expected[s])
		if err != nil {
			return Counts{}, nil, err
		}
		classes[s] = c
		switch c {
		case ClassBenign:
			counts.Benign++
		case ClassSymmetric:
			counts.Symmetric++
		case ClassAsymmetric:
			counts.Asymmetric++
		}
	}
	return counts, classes, nil
}
