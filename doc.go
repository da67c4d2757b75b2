// Package mbfaa is a reproduction of "Approximate Agreement under Mobile
// Byzantine Faults" (Bonomi, Del Pozzo, Potop-Butucaru, Tixeuil — ICDCS
// 2016): Mean-Subsequence-Reduce (MSR) approximate agreement running under
// the four synchronous Mobile Byzantine Fault models, with the paper's
// replica bounds (Table 2), the mobile→mixed-mode fault mapping (Table 1),
// runtime checkers for its correctness theorems, executable versions of its
// lower-bound constructions, and a full experiment harness.
//
// # The five API layers
//
// The facade is organized around Spec, Engine and batches:
//
//   - A Spec is the serializable description of one execution: model,
//     system size, inputs, tolerance, algorithm and adversary (by name, by
//     instance, or by factory), seed, round limits. Functional Options
//     build one (NewSpec), Spec.Validate reports failures eagerly as typed
//     *ConfigError values wrapping ErrSpec.
//
//   - An Engine executes Specs over a pool of recycled runners.
//     Engine.Run(ctx, spec) is the one-shot form; Engine.Stream(ctx, spec)
//     yields every round's RoundInfo as it completes. Both honour context
//     cancellation at round boundaries: cancelling stops the run within
//     one round with an error satisfying errors.Is(err, context.Canceled).
//
//   - Engine.RunBatch(ctx, specs, opts) executes whole experiment grids on
//     a bounded worker pool, returning results in spec order and streaming
//     per-run completion events through BatchOptions.Progress (or
//     Engine.StreamBatch). Batches are bit-identical for any worker count:
//     specs without a pinned seed derive theirs from (BatchOptions.Seed,
//     spec index) alone — see DeriveSeed. Stateful adversary instances
//     shared across specs are rejected with a typed *SharedInstanceError;
//     use WithAdversaryFactory instead.
//
//   - Engine.Deploy(ClusterSpec) is the distributed backend: it wires an
//     n-node cluster over in-memory links or HMAC-authenticated loopback
//     TCP sockets — a full mesh, every node exchanging with every node —
//     running the protocol in deadline-driven rounds with omission
//     detection and schedule-driven mobile-fault injection, the paper-§3
//     system over real message passing. Rounds are strict lockstep by
//     default; ClusterSpec.PipelineDepth = k lets a node run up to k
//     rounds ahead of the slowest peer, flagging peers persistently more
//     than k rounds behind (NodeStats.StallEvents) and scoring per-peer
//     missed closes (NodeStats.PeerMisses). Every depth runs one step
//     machine that keeps ahead-of-round frames in a bounded ring of
//     per-round receive states (k rounds ahead at depth k, 32 at depth
//     0); a frame beyond that window is dropped and counted in
//     NodeStats.StaleRounds, an unrecorded frame for a closed round in
//     NodeStats.Late. Chaos deployments keep SyncRounds semantics at any
//     depth so seeded replay holds. ClusterSpec is JSON-serializable
//     like Spec and validates eagerly (under-provisioned systems fail with
//     the same *BoundError as CheckSystem before any socket opens);
//     Deployment.Run(ctx) returns a ClusterResult embedding the core
//     Result shape plus per-node transport counters and throughput. The
//     TCP transport is self-healing: a broken connection is redialed
//     under ClusterSpec.Retry (exponential backoff, seeded jitter,
//     bounded total budget) with the unwritten frames retained and
//     resent from the last frame boundary, and a peer whose outage
//     exhausts the budget degrades to omission faults — its frames
//     become counted drops (NodeStats.PeerDownDrops), never errors,
//     until an inbound frame or successful dial resurrects it. The
//     protocol layer is insulated by construction: link failures reach
//     it only as the omissions the paper's fault model already covers.
//     The TCP wire path is lean per frame: the codec signs and verifies
//     with keyed HMAC states borrowed from a pool (no key re-hashing, no
//     allocation), each frame is signed straight into its peer writer's
//     batch buffer, readers take frames through a 64-frame buffered
//     reader, and a node's frames to itself go through an in-process
//     queue to its own inbox, never through a socket.
//     Unlike the simulator a deployment is not
//     bit-deterministic — real sockets race — so the comparable surface
//     is the verdict (Converged, DecisionDiameter, Valid), not the
//     decision bits. The exception is a chaos deployment (below), which
//     is engineered to replay.
//
//   - Engine.Serve(ctx, ServiceSpec) is the long-lived form of Deploy: one
//     transport mesh, opened by the same mesh builder Deploy uses and
//     differing only in its memory inbox depth, hosting many concurrent
//     agreement instances, each a complete n-node protocol run submitted
//     with its own inputs
//     (Service.Submit → Handle, Service.Await, or the streamed
//     Service.Results). Frames carry an instance id and registration epoch
//     on the wire (frame format v2). Each mesh node runs one dispatch loop
//     hosting its node of every live instance as a step machine: the loop
//     routes inbound frames by instance id and epoch, keeps one timer for
//     the earliest deadline among its instances, and hands every send of a
//     pass to the link at once — on TCP, frames of different instances
//     ride one socket write. An instance costs no goroutine, channel or
//     timer of its own. MaxConcurrent bounds
//     the instances in flight (Submit blocks: backpressure); node sets are
//     pooled across instances; each instance's chaos campaign is seeded
//     from the template seed and its instance id, so service runs replay
//     instance by instance. Multiplexing must not leak between instances:
//     concurrent instances are asserted bit-identical to their
//     single-instance deployment digests, at any interleaving.
//
// A minimal run:
//
//	spec := mbfaa.NewSpec(
//		mbfaa.WithModel(mbfaa.M2),
//		mbfaa.WithSystem(11, 2), // n = 11 > 5f = 10
//		mbfaa.WithInputs(20.1, 20.4, 19.9, 20.0, 20.2, 20.3, 19.8, 20.1, 20.0, 20.2, 19.9),
//		mbfaa.WithEpsilon(0.05),
//	)
//	res, err := mbfaa.NewEngine().Run(ctx, spec)
//
// The legacy one-shot Run(opts...) remains as a thin wrapper over the
// default Engine without a cancellation context; existing callers need not
// change.
//
// Every non-faulty process decides a value; decisions are within ε of each
// other (ε-Agreement) and inside the range of correct inputs (Validity),
// provided n exceeds the model's bound: 4f (M1/Garay), 5f (M2/Bonnet),
// 6f (M3/Sasaki), 3f (M4/Buhrman).
//
// # Determinism guarantee
//
// A run is identified by its Spec and seed, and replays bit-identically —
// across pooled and fresh runners, across Run and Stream, and across worker
// counts in RunBatch (the hot path performs O(1) allocations per round).
// The golden-determinism suite (internal/golden) pins recorded output
// digests for a matrix of models, algorithms, adversaries and seeds, and
// every public entry point is asserted against it, so no optimization or
// API layer can silently change protocol semantics.
//
// # The base+patch round kernel
//
// The simulation hot path executes each round in a factored representation
// rather than an n×n observation matrix: symmetric senders (correct
// processes and M2-cured rebroadcasters) send one value to everybody, so
// their contributions form a single base sorted once per round, while the
// asymmetric senders (faulty processes and M3-cured poisoned queues — at
// most 2f) contribute a per-receiver patch of value-or-omission entries.
// The base is NaN-checked and sorted once per round; a receiver's O(f)
// patch is NaN-checked and sorted when it is attached to the base, and the
// received multiset stays two ascending runs that are never merged. The
// MSR reduction selects the surviving ranks by co-rank binary search,
// Dolev's selection looks up only the ranks it keeps, and FTA's mean walks
// only the survivors. The camp-steering adversaries send every receiver
// one value from all asymmetric senders (a broadcast row), so that patch
// is attached in O(1) as a constant run, count copies of one value read in
// place. Round cost is O(n log n) for FTM and Median under such
// adversaries and O(n log n + n·(f log f + log n)) when an explicit patch
// must be copied and sorted, plus those lookups or that walk per receiver
// for Dolev and FTA, instead of O(n² log n).
//
// The kernel is bit-exact by construction: the two runs are read in the
// order their linear merge would emit (ties base-first), which is the
// ascending sequence the per-receiver full sort produced, and the voting
// function consumes it with the same left-to-right summation (no sums are
// re-associated), so the determinism guarantee above is unaffected — the
// golden digests were recorded on the pre-kernel engine and still hold.
// Runs with an OnRound callback vote through the same kernel; the engine
// materializes the round's observation matrix from the plan for the
// callback, and the test reference (golden.CheckMatrixVotes) re-votes every
// receiver's row of it with msr.ApplyCapped, bit for bit, every round.
//
// # The chaos layer and its determinism contract
//
// ClusterSpec.Chaos wraps every deployment link in a deterministic fault
// injector (internal/transport.Chaos, which attaches one way: WrapLink in
// front of each node's link, whether that is a memory hub's view, a TCP
// node or a service instance's route): per-link latency jitter, drops,
// duplication, bounded reordering, frame corruption (mangled bytes pushed
// through the real codec so the HMAC rejection fires — counted in
// NodeStats.Corrupt, never delivered wrong), round-indexed partitions
// with heal times, per-node crash-recover windows, and connection
// faults: ResetRate severs a live TCP connection mid-stream (healed by
// the transport's retry machinery) and DialFailRate/DialFailBurst open
// seeded windows of failing dial attempts. Frame faults are drawn from
// a seeded splittable PRNG stream keyed by (directed link, message
// index) in a fixed order, so the injected-fault trace
// (Deployment.FaultTrace) is bit-identical for a given seed regardless
// of scheduling. Resets are part of that trace on every transport;
// dial failures are keyed by (link, attempt index) — deterministic as
// decisions, but counted outside the ordered trace because the attempt
// index advances with real reconnect timing. Connection faults are not
// charged against the Table 2 budget: the transport heals them, so
// they cost latency, not omissions. Every link reports one
// transport.Counters value, a wrapper adding its own counts to its inner
// link's; the node folds it into NodeStats (Corrupt, Partitioned,
// Overflow, Rejected, the reconnect and peer-health counts), and
// Deployment.Coalescing and ServiceStats read the socket totals from it.
//
// The stronger contract — identical verdicts, votes and per-node
// NodeStats across same-seed runs — additionally requires the shared
// round clock a chaos deployment enables automatically
// (cluster.Config.SyncRounds: rounds last their full deadline, the
// paper's synchronous model, removing cross-node round skew), no
// reordering (a held-back frame's Received-vs-Late attribution races the
// round deadline even on the synchronous clock), and
// LatencyMax ≤ RoundTimeout/2. Deploy validates the chaos budget against
// the model's Table 2 bound — ⌈(drop+corrupt)·(n−1)⌉ effective omissions
// plus concurrent crashes and the largest partition minority must fit on
// top of F — unless AllowSubBound is set, and stretches the round
// horizon to cover the injected loss. A node that stays dead past the
// run horizon surfaces as a typed *NodeDownError carrying the surviving
// nodes' partial ClusterResult, instead of hanging the run. The
// mbfaa-cluster -soak mode drives agreement epochs continuously under
// chaos, asserting the Table 2 convergence bounds each epoch and
// printing a replay seed on violation.
//
// # Batched adversary consultation and the parallel vote loop
//
// The engine consults the adversary once per round, not once per
// (sender, receiver) pair: after classifying senders it makes a single
// Adversary.RoundDirectives call, handing the adversary the whole round
// (RoundView — the omniscient view plus the faulty and cured sender sets)
// and a Directives script to fill with one value-or-omission entry per
// scripted pair (omission by default) — or, for an adversary whose
// scripted senders all send a receiver the same value, with one value per
// receiver (Directives.SetRow). A randomized adversary draws from the
// view's Rng in a fixed order, so seeded runs replay. An adversary written
// one pair at a time implements PairAdversary instead and is lifted by an
// explicit AdaptAdversary call, whose adapter asks the pairs senders
// ascending, receivers ascending within each sender, and treats a NaN
// answer as an omission. The RoundView and Directives are engine scratch:
// adversaries that retain views across calls must declare
// mobile.ViewRetainer, which is seen through the adapter.
//
// See the README's "Command-line tools" section for regenerating the
// paper's tables and figures, its "Performance" and "Benchmarks" sections
// for the measured record, and the examples/ directory for runnable
// scenarios (sensor fusion, clock synchronization, robot gathering).
package mbfaa
