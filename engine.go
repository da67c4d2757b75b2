package mbfaa

import (
	"context"
	"sync"

	"mbfaa/internal/core"
)

// RoundInfo is the per-round snapshot delivered by Engine.Stream: the
// send-phase states, the full observation matrix, the post-computation
// votes, and the paper's U multiset. Every field is freshly allocated and
// owned by the receiver.
type RoundInfo = core.RoundInfo

// Engine executes protocol runs over a pool of recycled core runners: each
// Run borrows a runner (with its vote/state double buffer, observation
// matrix, adversary view and faulty set) from a sync.Pool and returns it
// afterwards, so a steady-state pooled run keeps the round loop at the
// Runner's ~2 allocations per round instead of reallocating the engine
// state per call. An Engine is safe for concurrent use by any number of
// goroutines — concurrent runs simply borrow distinct runners — and the
// zero value is ready to use.
//
// Pooling never changes semantics: Engine.Run is bit-identical to the
// legacy Run and to a fresh core engine for every spec, which the golden
// equivalence suite asserts against the recorded PR 2 digests.
type Engine struct {
	pool sync.Pool // of *core.Runner
}

// NewEngine returns an Engine with an empty runner pool. The zero value is
// equally usable; the constructor exists for symmetry and future options.
func NewEngine() *Engine { return &Engine{} }

// defaultEngine backs the package-level Run, so even legacy callers
// recycle runners across calls.
var defaultEngine Engine

// get borrows a runner from the pool, constructing one on miss.
func (e *Engine) get() *core.Runner {
	if r, ok := e.pool.Get().(*core.Runner); ok {
		return r
	}
	return core.NewRunner()
}

// put returns a runner to the pool.
func (e *Engine) put(r *core.Runner) { e.pool.Put(r) }

// Run executes one approximate-agreement instance described by the spec on
// a pooled runner and returns its Result. The context is checked once per
// round boundary: cancelling it aborts the run within one round with an
// error satisfying errors.Is(err, context.Canceled) (or DeadlineExceeded).
// A nil context means the run cannot be cancelled.
//
// Spec validation failures surface as *ConfigError values wrapping ErrSpec
// before any round executes.
func (e *Engine) Run(ctx context.Context, spec Spec) (*Result, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cfg, err := spec.config()
	if err != nil {
		return nil, err
	}
	cfg.Ctx = ctx
	r := e.get()
	defer e.put(r)
	return r.Run(cfg)
}

// Stream starts the spec on a pooled runner and returns a Stream yielding
// every round's RoundInfo as it completes; the producer runs at the
// consumer's pace (the engine blocks on the unbuffered hand-off, so memory
// use is one round regardless of run length). Cancelling the context stops
// the run within one round; Close does the same for consumers abandoning a
// stream early. Each streamed RoundInfo is freshly allocated and
// retainable (its observation matrix is materialized from the round's plan),
// and the protocol outputs remain bit-identical to Engine.Run, which the
// golden equivalence suite asserts.
func (e *Engine) Stream(ctx context.Context, spec Spec) *Stream {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	s := &Stream{
		infos:  make(chan RoundInfo),
		done:   make(chan struct{}),
		cancel: cancel,
	}
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		s.fail(err)
		return s
	}
	cfg, err := spec.config()
	if err != nil {
		s.fail(err)
		return s
	}
	cfg.Ctx = ctx
	cfg.OnRound = func(ri RoundInfo) {
		select {
		case s.infos <- ri:
		case <-ctx.Done():
			// The consumer is gone; the engine notices at the next round
			// boundary.
		}
	}
	go func() {
		defer close(s.done)
		defer close(s.infos)
		defer s.cancel() // release the derived context once the run exits
		r := e.get()
		defer e.put(r)
		s.result, s.err = r.Run(cfg)
	}()
	return s
}

// Stream is an in-flight streaming run: an iterator over RoundInfo
// snapshots with the final Result behind it. The consumer drives the run by
// calling Next until it reports false, then reads Result; abandoning the
// stream early requires Close (or cancelling the context passed to
// Engine.Stream), otherwise the producer goroutine stays blocked on the
// hand-off. A Stream is not safe for concurrent use.
type Stream struct {
	infos  chan RoundInfo
	done   chan struct{}
	cancel context.CancelFunc
	result *Result
	err    error
}

// fail turns s into an immediately exhausted stream carrying err.
func (s *Stream) fail(err error) {
	s.err = err
	s.cancel() // release the derived context; no run ever started
	close(s.infos)
	close(s.done)
}

// Next blocks until the next round completes and returns its snapshot; ok
// is false when the run has finished (normally, by error, or by
// cancellation) and the final outcome is available from Result.
func (s *Stream) Next() (ri RoundInfo, ok bool) {
	ri, ok = <-s.infos
	return ri, ok
}

// Result blocks until the run finishes and returns its outcome: the final
// Result, or the error that stopped the run (context.Canceled after Close
// or an outer cancellation). It drains any unconsumed rounds first, so it
// is always safe to call — with or without exhausting Next.
func (s *Stream) Result() (*Result, error) {
	for range s.infos {
		// Discard rounds the consumer skipped; the channel closes when the
		// producer exits.
	}
	<-s.done
	return s.result, s.err
}

// Close abandons the stream: it cancels the run (which stops within one
// round), unblocks the producer, and waits for it to exit. Safe to call
// multiple times and after normal exhaustion. The terminal error is
// reported by Result.
func (s *Stream) Close() {
	s.cancel()
	for range s.infos {
	}
	<-s.done
}
