package core

import (
	"context"
	"fmt"
	"math"

	"mbfaa/internal/mobile"
	"mbfaa/internal/multiset"
	"mbfaa/internal/prng"
	"mbfaa/internal/trace"
)

// Run executes the protocol on the deterministic single-threaded engine and
// returns the Result. It is the reference implementation of the round
// semantics. Callers executing many runs should hold a Runner and call its
// Run method instead, which recycles all per-round scratch state; this
// function is equivalent to NewRunner().Run(cfg).
func Run(cfg Config) (*Result, error) {
	return NewRunner().Run(cfg)
}

// faultySet tracks which processes currently host an agent, as a flat
// generation-counter array: process p is faulty iff gen[p] equals the
// current epoch. Advancing the epoch clears the whole set in O(1), and the
// previous round's membership stays readable (gen[p] == cur-1) — exactly
// the was-faulty/now-cured transition the movement phase needs. It replaces
// the per-round map[int]bool, which cost an allocation per round and
// hashed on every membership test.
type faultySet struct {
	gen []uint64
	cur uint64
}

// reset prepares the set for a fresh run of n processes: empty, at epoch 1
// (epoch 0 is reserved as "never marked" so a recycled gen array cannot
// leak membership across runs).
func (s *faultySet) reset(n int) {
	if cap(s.gen) < n {
		s.gen = make([]uint64, n)
	}
	s.gen = s.gen[:n]
	for i := range s.gen {
		s.gen[i] = 0
	}
	s.cur = 1
}

// advance starts a new epoch with an empty membership.
func (s *faultySet) advance() { s.cur++ }

// mark adds p to the current epoch's membership.
func (s *faultySet) mark(p int) { s.gen[p] = s.cur }

// has reports whether p is faulty in the current epoch.
func (s *faultySet) has(p int) bool { return s.gen[p] == s.cur }

// wasPrev reports whether p was faulty in the previous epoch and has not
// been re-marked — the processes an agent just departed.
func (s *faultySet) wasPrev(p int) bool { return s.gen[p] == s.cur-1 }

// members returns the current membership in ascending process order (the
// scan is ordered, so no sort is needed). It allocates and is only called
// on the OnRound snapshot path.
func (s *faultySet) members() []int {
	var out []int
	for p := range s.gen {
		if s.gen[p] == s.cur {
			out = append(out, p)
		}
	}
	return out
}

// scratch is the reusable buffer set behind a Runner: every slice the round
// loop needs, sized once per system size and recycled across rounds and
// runs. With scratch in place a steady-state round performs O(1)
// allocations (PRNG stream derivations and whatever the adversary itself
// allocates) instead of the former O(n²).
type scratch struct {
	n int // current buffer capacity, in processes

	votes    []float64      // stored values (swapped with newVotes each round)
	newVotes []float64      // computation-phase output buffer
	states   []mobile.State // failure states

	viewVotes  []float64      // snapshotView's vote copy
	viewStates []mobile.State // snapshotView's state copy
	view       mobile.View    // the reusable adversary view
	rng        prng.Source    // the view's per-phase derived stream

	faulty faultySet

	sendStates []mobile.State // send-phase state snapshot for the checkers
	uValues    []float64      // planSendPhase's U accumulation buffer
	diamSeries []float64      // the run's diameter series, copied out by result

	// Batched-consultation state: the per-round directives script the
	// adversary fills in one call, the RoundView wrapper handed to it, and
	// the ascending faulty/cured sender lists the wrapper exposes.
	dirs  mobile.Directives
	rview mobile.RoundView
	fList []int
	cList []int
	// placement is the validated agent placement of the latest Place
	// call (mobile.ValidatePlacement writes it in place).
	placement []int

	// Base+patch kernel state: the per-round plan (base and directives
	// script) plus the per-receiver patch buffer. Scratch never holds
	// n×n state (only an OnRound snapshot materializes a matrix, freshly
	// allocated), so scratch memory is O(n) with
	// broadcast directive rows and O(n + f·n) once a row is explicit,
	// instead of O(n²).
	kern  kernelPlan
	pvals []float64 // an explicit row's patch values (≤ 2f per round)
}

// ensure sizes every buffer for n processes. Flat buffers grow
// monotonically and are resliced to [:n] per run; the directives script's
// explicit-row block grows to the largest |asym|×n an explicit row needed.
func (sc *scratch) ensure(n int) error {
	if sc.n < n {
		sc.votes = make([]float64, n)
		sc.newVotes = make([]float64, n)
		sc.states = make([]mobile.State, n)
		sc.viewVotes = make([]float64, n)
		sc.viewStates = make([]mobile.State, n)
		sc.sendStates = make([]mobile.State, n)
		sc.uValues = make([]float64, 0, n)
		sc.pvals = make([]float64, 0, n)
		sc.fList = make([]int, 0, n)
		sc.cList = make([]int, 0, n)
		sc.placement = make([]int, 0, n)
		sc.n = n
	}
	return nil
}

// Runner executes protocol runs while recycling all per-round scratch
// state: vote and state buffers, the adversary view, the round plan, the
// faulty set, and the vote loop's patch buffer. A Runner
// is NOT safe for concurrent use — hold one per goroutine (internal/sweep
// gives each pool worker its own). Results remain valid after the Runner is
// reused: everything a Result carries is copied out of scratch at the end
// of the run. The zero value is ready to use.
//
// Reuse does not weaken determinism: Runner.Run and package-level Run are
// bit-identical for every Config, which the golden-determinism suite
// asserts across models, algorithms, adversaries and seeds.
type Runner struct {
	sc scratch
}

// NewRunner returns a Runner with empty scratch; buffers are sized lazily
// on first use and grow monotonically to the largest N seen.
func NewRunner() *Runner { return &Runner{} }

// Run executes the protocol on the deterministic engine, recycling the
// Runner's scratch state. When cfg.Ctx is non-nil, cancellation is honoured
// at every round boundary: the run returns the context's error (satisfying
// errors.Is(err, context.Canceled)) within one round of the cancellation.
func (r *Runner) Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st, err := newRunState(cfg, &r.sc)
	if err != nil {
		return nil, err
	}
	for round := 0; round < cfg.MaxRounds; round++ {
		if err := checkCtx(cfg.Ctx, round); err != nil {
			return nil, err
		}
		if err := st.runRound(round); err != nil {
			return nil, err
		}
		if st.halted(round) {
			break
		}
	}
	return st.result(), nil
}

// checkCtx is the engine's once-per-round cancellation probe.
// The nil test keeps uncancellable runs free of any context machinery; the
// non-nil path is a single atomic load inside ctx.Err, no allocation.
func checkCtx(ctx context.Context, round int) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: run cancelled before round %d: %w", round, err)
	}
	return nil
}

// runState is the mutable state of one execution. Its slices alias the
// scratch buffers; everything that outlives the run is copied into the
// Result at the end.
type runState struct {
	cfg    Config
	master *prng.Source
	rec    *trace.Recorder
	sc     *scratch

	votes    []float64
	newVotes []float64
	states   []mobile.State
	faulty   *faultySet

	// snapshot is set when Config.OnRound is non-nil: the per-round
	// matrix, send states, expected values and U are then materialized
	// and freshly allocated, because the callback may legitimately retain
	// them (the Table 1 experiment does). Without a callback no matrix
	// exists and the rest lives in scratch.
	snapshot bool
	// copyViews is set when the adversary declares (via
	// mobile.ViewRetainer) that it retains views across calls; the engine
	// then hands it freshly allocated snapshots exactly as the
	// pre-scratch engine did.
	copyViews bool

	tau          int // cfg.Tau(), fixed for the run
	initialRange multiset.Interval
	diamSeries   []float64
	rounds       int
	converged    bool
	report       *CheckReport
}

// newRunState initializes votes and states in the given scratch and applies
// the round-0 agent placement.
func newRunState(cfg Config, sc *scratch) (*runState, error) {
	if err := sc.ensure(cfg.N); err != nil {
		return nil, err
	}
	st := &runState{
		cfg:      cfg,
		master:   prng.New(cfg.Seed),
		rec:      cfg.Recorder,
		sc:       sc,
		votes:    sc.votes[:cfg.N],
		newVotes: sc.newVotes[:cfg.N],
		states:   sc.states[:cfg.N],
		faulty:   &sc.faulty,
		snapshot: cfg.OnRound != nil,
		tau:      cfg.Tau(),
	}
	// RetainsViews looks through Adapters and wrappers, so a wrapped
	// view-retaining adversary still gets its defensive copies.
	if mobile.RetainsViews(cfg.Adversary) {
		st.copyViews = true
	}
	copy(st.votes, cfg.Inputs)
	for i := range st.states {
		st.states[i] = mobile.StateCorrect
	}
	st.faulty.reset(cfg.N)
	if cfg.EnableCheckers {
		st.report = &CheckReport{}
	}

	placement, err := mobile.ValidatePlacement(sc.placement, cfg.Adversary.Place(st.borrowView(0, phasePlace)), cfg.N, cfg.F)
	if err != nil {
		return nil, fmt.Errorf("core: round 0 placement: %w", err)
	}
	for _, p := range cfg.InitialCured {
		st.states[p] = mobile.StateCured
	}
	for _, p := range placement {
		st.faulty.mark(p)
		st.states[p] = mobile.StateFaulty
		st.votes[p] = math.NaN()
	}
	if st.rec.Enabled() {
		st.rec.Record(trace.Event{Round: 0, Kind: trace.KindMove, To: -1,
			Text: fmt.Sprintf("initial agents on %v, initial cured %v", placement, cfg.InitialCured)})
	}

	// Validity baseline and initial diameter over the initially correct.
	correct := sc.uValues[:0]
	for i, s := range st.states {
		if s == mobile.StateCorrect {
			correct = append(correct, cfg.Inputs[i])
		}
	}
	ms, err := multiset.FromOwned(correct)
	if err != nil {
		return nil, err
	}
	iv, ok := ms.Range()
	if !ok {
		return nil, fmt.Errorf("core: no initially correct process")
	}
	st.initialRange = iv
	st.diamSeries = append(sc.diamSeries[:0], ms.Diameter())
	return st, nil
}

// move relocates the agents at the start of a round (M1–M3). Departing
// agents leave a corrupted value behind; arriving agents obliterate their
// host's state.
func (st *runState) move(round int) error {
	placement, err := mobile.ValidatePlacement(st.sc.placement, st.cfg.Adversary.Place(st.borrowView(round, phasePlace)), st.cfg.N, st.cfg.F)
	if err != nil {
		return fmt.Errorf("core: round %d placement: %w", round, err)
	}
	// The leave view is a snapshot: LeaveBehind consultations interleave
	// with the vote/state writes below and must all see the pre-move state.
	leaveView := st.snapshotView(round, phaseLeave)
	st.faulty.advance()
	for _, p := range placement {
		st.faulty.mark(p)
	}
	for p := 0; p < st.cfg.N; p++ {
		if st.faulty.wasPrev(p) {
			st.states[p] = mobile.StateCured
			v := st.cfg.Adversary.LeaveBehind(leaveView, p)
			if math.IsNaN(v) {
				v = 0 // sanitize: stored state is a real value
			}
			st.votes[p] = v
		}
	}
	for _, p := range placement {
		st.states[p] = mobile.StateFaulty
		st.votes[p] = math.NaN()
	}
	if st.rec.Enabled() {
		st.rec.Record(trace.Event{Round: round, Kind: trace.KindMove, To: -1,
			Text: fmt.Sprintf("agents on %v", placement)})
	}
	return nil
}

// moveM4 relocates the agents between the send and receive phases (M4:
// agents travel with messages). Released hosts become correct immediately —
// they are aware, their state is about to be recomputed from this round's
// messages, and per Lemma 4 no process is cured during any send phase.
func (st *runState) moveM4(round int) error {
	placement, err := mobile.ValidatePlacement(st.sc.placement, st.cfg.Adversary.Place(st.borrowView(round+1, phasePlace)), st.cfg.N, st.cfg.F)
	if err != nil {
		return fmt.Errorf("core: round %d mid-round placement: %w", round, err)
	}
	st.faulty.advance()
	for _, p := range placement {
		st.faulty.mark(p)
	}
	for p := 0; p < st.cfg.N; p++ {
		if st.faulty.wasPrev(p) {
			st.states[p] = mobile.StateCorrect
		}
	}
	for _, p := range placement {
		st.states[p] = mobile.StateFaulty
		st.votes[p] = math.NaN()
	}
	if st.rec.Enabled() {
		st.rec.Record(trace.Event{Round: round, Kind: trace.KindMove, To: -1,
			Text: fmt.Sprintf("agents travel with messages to %v", placement)})
	}
	return nil
}

// sendStatesForChecks returns the send-phase failure states when the
// checkers or the OnRound callback need them, nil otherwise. The snapshot
// matters under M4, whose mid-round movement mutates st.states before the
// checks run. OnRound callbacks may retain the slice, so they get a fresh
// copy; the checkers only read it, so they share scratch.
func (st *runState) sendStatesForChecks() []mobile.State {
	if st.report == nil && !st.snapshot {
		return nil
	}
	if st.snapshot {
		return append([]mobile.State(nil), st.states...)
	}
	out := st.sc.sendStates[:st.cfg.N]
	copy(out, st.states)
	return out
}

// runRound executes one full round: movement, send, receive, compute,
// checkers, state refresh.
func (st *runState) runRound(round int) error {
	cfg := &st.cfg
	if round > 0 && !cfg.Model.MovesWithMessages() {
		if err := st.move(round); err != nil {
			return err
		}
	}
	sendStates := st.sendStatesForChecks()

	plan, err := st.planSendPhase(round)
	if err != nil {
		return err
	}

	if cfg.Model.MovesWithMessages() {
		if err := st.moveM4(round); err != nil {
			return err
		}
	}

	// Receive + compute for every process not faulty during computation:
	// each receiver votes over the round's shared sorted base plus its row
	// of the directives script, as two runs.
	if err := st.voteRange(round, st.tau, plan.kern); err != nil {
		return err
	}
	if st.rec.Enabled() {
		for i := 0; i < cfg.N; i++ {
			if !st.faulty.has(i) {
				st.rec.Record(trace.Event{Round: round, Kind: trace.KindCompute, From: i, To: -1, Value: st.newVotes[i]})
			}
		}
	}

	st.finishRound(round, sendStates, plan)
	return nil
}

// finishRound runs the checkers and the OnRound callback, installs the new
// votes, refreshes cured states, and extends the diameter series.
func (st *runState) finishRound(round int, sendStates []mobile.State, plan plannedRound) {
	cfg := &st.cfg
	if st.report != nil {
		st.report.checkRound(round, *cfg, sendStates, st.faulty, st.newVotes, plan.u)
	}
	if cfg.OnRound != nil {
		cfg.OnRound(RoundInfo{
			Round:         round,
			SendStates:    sendStates,
			Matrix:        plan.matrix,
			Expected:      plan.expected,
			Votes:         append([]float64(nil), st.newVotes...),
			ComputeFaulty: st.faulty.members(),
			U:             plan.u,
		})
	}

	st.votes, st.newVotes = st.newVotes, st.votes
	for i := range st.states {
		if st.states[i] == mobile.StateCured {
			// Lemma 5: the computation phase restored a correct value.
			st.states[i] = mobile.StateCorrect
		}
	}
	st.diamSeries = append(st.diamSeries, st.currentDiameter())
	st.rounds = round + 1
}

// currentDiameter returns the spread of non-faulty stored values. Like
// View.CorrectRange it uses the builtin min and max, which compile inline.
func (st *runState) currentDiameter() float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	found := false
	for i, v := range st.votes {
		if st.faulty.has(i) || math.IsNaN(v) {
			continue
		}
		lo = min(lo, v)
		hi = max(hi, v)
		found = true
	}
	if !found {
		return 0
	}
	return hi - lo
}

// halted applies the halting rule after round r and sets convergence.
func (st *runState) halted(round int) bool {
	diam := st.diamSeries[len(st.diamSeries)-1]
	if st.cfg.FixedRounds > 0 {
		if round+1 >= st.cfg.FixedRounds {
			st.converged = diam <= st.cfg.Epsilon
			return true
		}
		return false
	}
	if diam <= st.cfg.Epsilon {
		st.converged = true
		return true
	}
	return false
}

// result assembles the Result and runs the validity check. Every field is
// copied out of scratch, so Results stay valid when the Runner is reused.
func (st *runState) result() *Result {
	res := &Result{
		Rounds:              st.rounds,
		Converged:           st.converged,
		Votes:               append([]float64(nil), st.votes...),
		Decided:             make([]bool, st.cfg.N),
		InitialCorrectRange: st.initialRange,
		DiameterSeries:      append([]float64(nil), st.diamSeries...),
		Check:               st.report,
	}
	st.sc.diamSeries = st.diamSeries // keep the grown buffer for the next run
	for i := 0; i < st.cfg.N; i++ {
		res.Decided[i] = !st.faulty.has(i)
		if res.Decided[i] {
			st.rec.Record(trace.Event{Round: st.rounds, Kind: trace.KindDecide, From: i, To: -1, Value: res.Votes[i]})
		}
	}
	if st.report != nil {
		st.report.checkValidity(st.rounds, res.Votes, res.Decided, st.initialRange)
	}
	return res
}
