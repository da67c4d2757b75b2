package mobile

import (
	"errors"
	"fmt"
)

// ErrBelowBound is the sentinel wrapped by *BoundError: the system does not
// exceed the model's Table 2 replica bound. It lives here (rather than in
// the facade) so every execution backend — the simulator and the
// distributed cluster — rejects under-provisioned systems with the same
// typed error.
var ErrBelowBound = errors.New("mbfaa: system does not exceed the replica bound")

// BoundError reports an (n, f, model) combination at or below the model's
// Table 2 replica bound, returned by CheckSystem. It wraps ErrBelowBound.
type BoundError struct {
	Model Model
	N, F  int
}

// Error implements error, spelling out the violated bound and the minimal
// sufficient system size.
func (e *BoundError) Error() string {
	return fmt.Sprintf("mbfaa: n=%d does not exceed the %v bound %df=%d (need n ≥ %d)",
		e.N, e.Model, e.Model.Bound(1), e.Model.Bound(e.F), e.Model.RequiredN(e.F))
}

// Unwrap makes errors.Is(err, ErrBelowBound) hold.
func (e *BoundError) Unwrap() error { return ErrBelowBound }

// CheckSystem validates an (n, f, model) combination against Table 2. It
// returns nil when n exceeds the model's bound, and a *BoundError (wrapping
// ErrBelowBound) explaining the bound when it does not.
func CheckSystem(m Model, n, f int) error {
	if n > m.Bound(f) {
		return nil
	}
	return &BoundError{Model: m, N: n, F: f}
}
