package mbfaa

import (
	"errors"
	"fmt"
	"time"

	"mbfaa/internal/mobile"
)

// Sentinel errors of the public API. Match them with errors.Is; the typed
// errors below additionally carry structure for errors.As.
var (
	// ErrSpec is the sentinel every Spec validation failure wraps: any
	// *ConfigError satisfies errors.Is(err, ErrSpec).
	ErrSpec = errors.New("mbfaa: invalid spec")
	// ErrSharedInstance is the sentinel wrapped by *SharedInstanceError:
	// a batch submitted the same mutable instance (a stateful adversary, a
	// trace recorder) under more than one spec, which would race across the
	// pool's workers.
	ErrSharedInstance = errors.New("mbfaa: mutable instance shared across batch specs")
	// ErrBelowBound is the sentinel wrapped by *BoundError (CheckSystem).
	// The canonical definition lives in the mobile package so every
	// execution backend (the simulator and the cluster) rejects
	// under-provisioned systems with the same error chain.
	ErrBelowBound = mobile.ErrBelowBound
	// ErrNodeDown is the sentinel wrapped by *NodeDownError: a deployment
	// run where at least one node stayed dead past the run horizon.
	ErrNodeDown = errors.New("mbfaa: node down past run horizon")
	// ErrServiceClosed is returned by Service.Submit once the service is
	// closed (Service.Close was called, or the serve context was cancelled).
	ErrServiceClosed = errors.New("mbfaa: service closed")
)

// ConfigError reports one invalid Spec field. It wraps ErrSpec.
type ConfigError struct {
	// Field names the Spec field at fault ("Inputs", "Epsilon", …).
	Field string
	// Reason explains the failure, naming the offending values.
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("mbfaa: invalid spec: %s: %s", e.Field, e.Reason)
}

// Unwrap makes errors.Is(err, ErrSpec) hold for every ConfigError.
func (e *ConfigError) Unwrap() error { return ErrSpec }

// configErrorf builds a *ConfigError with a formatted reason.
func configErrorf(field, format string, args ...any) *ConfigError {
	return &ConfigError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// SharedInstanceError reports a mutable instance submitted under more than
// one spec of a batch. Stateful adversaries (splitter, greedy, mixed-mode)
// pin per-run state and would race — use WithAdversaryFactory (or
// AdversaryName) so every job constructs its own; trace recorders are
// unsynchronized and would interleave events. It wraps ErrSharedInstance.
type SharedInstanceError struct {
	// Kind is what was shared: "adversary" or "trace recorder".
	Kind string
	// Name identifies the instance (the adversary name) when known.
	Name string
	// First and Second are the indices of the two specs sharing it.
	First, Second int
}

// Error implements error.
func (e *SharedInstanceError) Error() string {
	name := e.Name
	if name != "" {
		name = " " + name
	}
	return fmt.Sprintf("mbfaa: batch specs %d and %d share the same %s%s instance; construct one per spec (adversaries: use WithAdversaryFactory)",
		e.First, e.Second, e.Kind, name)
}

// Unwrap makes errors.Is(err, ErrSharedInstance) hold.
func (e *SharedInstanceError) Unwrap() error { return ErrSharedInstance }

// BoundError reports an (n, f, model) combination at or below the model's
// Table 2 replica bound, returned by CheckSystem (and by ClusterSpec and
// cluster-config validation). It wraps ErrBelowBound.
type BoundError = mobile.BoundError

// NodeDownError reports a deployment run in which some nodes never reached
// a decision inside the run horizon — crashed past their recovery window,
// wedged in a non-cancellable transport call, or cancelled by the watchdog
// while still mid-protocol. Deployment.Run returns it instead of hanging.
// It wraps ErrNodeDown.
type NodeDownError struct {
	// Nodes are the ids that went down, ascending.
	Nodes []int
	// Horizon is the watchdog deadline the run exceeded.
	Horizon time.Duration
	// Partial is the result assembled from the surviving nodes: down nodes
	// carry zeroed votes and are excluded from Decided and the verdict.
	Partial *ClusterResult
}

// Error implements error.
func (e *NodeDownError) Error() string {
	return fmt.Sprintf("mbfaa: nodes %v down past the %v run horizon", e.Nodes, e.Horizon)
}

// Unwrap makes errors.Is(err, ErrNodeDown) hold.
func (e *NodeDownError) Unwrap() error { return ErrNodeDown }
