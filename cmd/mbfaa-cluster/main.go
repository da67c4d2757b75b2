// Command mbfaa-cluster launches a local distributed deployment of the
// approximate-agreement protocol — n nodes over in-memory links or a
// loopback TCP mesh with HMAC-authenticated frames, every node exchanging
// with every node, under a chosen mobile-fault schedule — and prints the
// convergence verdict and throughput.
//
// Examples:
//
//	mbfaa-cluster -n 16 -f 3 -model M1 -schedule rotating
//	mbfaa-cluster -n 64 -transport tcp -schedule crash -f 2
//	mbfaa-cluster -n 13 -f 2 -model M3 -schedule pingpong -algo fta
//
// Soak mode runs agreement epochs continuously under deterministic chaos,
// asserting the convergence bounds each epoch and printing the epoch's
// replay seed on any violation (copy it into -chaos-seed with -epochs 1 to
// reproduce the exact fault trace):
//
//	mbfaa-cluster -soak -n 8 -f 0 -schedule none -drop-rate 0.05 -corrupt-rate 0.02
//	mbfaa-cluster -soak -epochs 5 -chaos-seed 42 -dup-rate 0.1
//
// Serve mode hosts many concurrent agreement instances on one mesh — each
// instance a complete n-node protocol run, multiplexed by instance id with
// cross-instance write coalescing — and prints the aggregate throughput:
//
//	mbfaa-cluster -serve -instances 5000 -concurrent 256
//	mbfaa-cluster -serve -instances 1000 -transport tcp -n 4
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"mbfaa"
	"mbfaa/internal/prng"
	"mbfaa/internal/prof"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mbfaa-cluster: ")

	var (
		modelName = flag.String("model", "M1", "fault model: M1, M2, M3, M4")
		n         = flag.Int("n", 0, "node count (default: model minimum for f)")
		f         = flag.Int("f", 1, "number of mobile Byzantine agents")
		algoName  = flag.String("algo", "ftm", "algorithm: fta, ftm, dolev, median")
		schedule  = flag.String("schedule", "rotating", "fault schedule: none, rotating, pingpong, crash")
		transport = flag.String("transport", "memory", "link layer: memory, tcp")
		eps       = flag.Float64("eps", 1e-3, "agreement tolerance ε")
		inRange   = flag.Float64("range", 1, "a-priori input spread (fixes the local round horizon)")
		rounds    = flag.Int("rounds", 0, "fixed round count (0: computed from range/ε/contraction)")
		timeout   = flag.Duration("timeout", 200*time.Millisecond, "per-round receive deadline")
		pipeline  = flag.Int("pipeline", 0, "rounds a node may run ahead of the slowest peer (0: strict lockstep)")
		seed      = flag.Uint64("seed", 1, "seed for the nodes' inputs (serve: the master seed of every instance's inputs)")
		subBound  = flag.Bool("allow-sub-bound", false, "deploy below the model's n > kf resilience bound (lower-bound experiments)")
		showSpec  = flag.Bool("spec", false, "print the deployment's ClusterSpec as JSON and exit")
		showStats = flag.Bool("stats", false, "print per-node transport counters")

		serve      = flag.Bool("serve", false, "host many concurrent agreement instances on one mesh and print throughput")
		instances  = flag.Int("instances", 1000, "serve: total instances to run")
		concurrent = flag.Int("concurrent", 256, "serve: max instances in flight at once")

		soak        = flag.Bool("soak", false, "run agreement epochs continuously under chaos, asserting the convergence bounds each epoch")
		epochs      = flag.Int("epochs", 0, "soak epoch count (0: until interrupted)")
		dropRate    = flag.Float64("drop-rate", 0, "chaos: per-frame drop probability")
		dupRate     = flag.Float64("dup-rate", 0, "chaos: per-frame duplication probability")
		corruptRate = flag.Float64("corrupt-rate", 0, "chaos: per-frame corruption probability (frames fail HMAC and are rejected)")
		reorderRate = flag.Float64("reorder-rate", 0, "chaos: per-frame reorder probability (held until the link's next send)")
		latencyMax  = flag.Duration("latency-max", 0, "chaos: per-frame latency jitter upper bound (keep below half the round timeout)")
		resetRate   = flag.Float64("reset-rate", 0, "chaos: per-frame connection-reset probability (tcp: the frame's connection is torn down mid-stream and healed by the writer)")
		dialRate    = flag.Float64("dial-fail-rate", 0, "chaos: per-attempt dial-failure probability (tcp: reconnects retry under the backoff policy)")
		dialBurst   = flag.Int("dial-fail-burst", 0, "chaos: consecutive dial attempts failed per triggered window (0 or 1: a single attempt)")
		chaosSeed   = flag.Uint64("chaos-seed", 1, "chaos: master seed; soak derives one campaign seed per epoch from it")
		retryBase   = flag.Duration("retry-base", 0, "tcp reconnect: initial backoff between redial attempts (0: 5ms default)")
		retryMax    = flag.Duration("retry-max", 0, "tcp reconnect: backoff ceiling (0: 500ms default)")
		retryBudget = flag.Duration("retry-budget", 0, "tcp reconnect: total time per outage before the peer degrades to counted drops (0: 15s default)")
		profFlags   = prof.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()

	model, err := modelByShort(*modelName)
	if err != nil {
		log.Fatal(err)
	}
	if *n == 0 {
		*n = mbfaa.RequiredN(model, *f)
	}
	rng := prng.New(*seed)
	inputs := make([]float64, *n)
	for i := range inputs {
		inputs[i] = rng.Range(0, *inRange)
	}

	spec := mbfaa.ClusterSpec{
		Model:         model,
		N:             *n,
		F:             *f,
		Inputs:        inputs,
		Epsilon:       *eps,
		InputRange:    *inRange,
		FixedRounds:   *rounds,
		RoundTimeout:  *timeout,
		PipelineDepth: *pipeline,
		AlgorithmName: *algoName,
		ScheduleName:  *schedule,
		Transport:     *transport,
		AllowSubBound: *subBound,
	}
	chaos := mbfaa.ChaosSpec{
		Seed:          *chaosSeed,
		DropRate:      *dropRate,
		DupRate:       *dupRate,
		CorruptRate:   *corruptRate,
		ReorderRate:   *reorderRate,
		LatencyMax:    *latencyMax,
		ResetRate:     *resetRate,
		DialFailRate:  *dialRate,
		DialFailBurst: *dialBurst,
	}
	if !*soak && chaos.Active() {
		// Chaos flags on a single run attach the spec directly: one epoch,
		// the given seed.
		spec.Chaos = &chaos
	}
	if *retryBase != 0 || *retryMax != 0 || *retryBudget != 0 {
		spec.Retry = &mbfaa.RetryPolicy{
			Base: *retryBase, Max: *retryMax, Budget: *retryBudget, Seed: *chaosSeed,
		}
	}
	if *showSpec {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(spec); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *soak {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		if err := runSoak(ctx, spec, chaos, *epochs, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *serve {
		sspec := mbfaa.ServiceSpec{
			Model:         model,
			N:             *n,
			F:             *f,
			Epsilon:       *eps,
			InputRange:    *inRange,
			FixedRounds:   *rounds,
			RoundTimeout:  *timeout,
			PipelineDepth: *pipeline,
			AlgorithmName: *algoName,
			ScheduleName:  *schedule,
			Transport:     *transport,
			AllowSubBound: *subBound,
			MaxConcurrent: *concurrent,
		}
		if chaos.Active() {
			sspec.Chaos = &chaos
		}
		sspec.Retry = spec.Retry
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		if err := runServe(ctx, sspec, *instances, *seed, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	dep, err := mbfaa.NewEngine().Deploy(spec)
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = dep.Close() }()

	fmt.Printf("deploying n=%d f=%d model=%v algo=%s schedule=%s transport=%s pipeline=%d: %d rounds\n",
		*n, *f, model, *algoName, *schedule, orDefault(*transport, "memory"), *pipeline, dep.Rounds())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The profiles cover the deployment run; the heap profile is written
	// after the report prints. Every exit path after Start flushes
	// explicitly — log.Fatal and os.Exit bypass defers, and an interrupted
	// run is exactly when a CPU profile is wanted (an unflushed one has no
	// trailer and is unreadable by pprof).
	stopProf, err := profFlags.Start()
	if err != nil {
		log.Fatal(err)
	}
	fatal := func(v ...any) {
		if perr := stopProf(); perr != nil {
			log.Print(perr)
		}
		log.Fatal(v...)
	}

	res, err := dep.Run(ctx)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fatal("interrupted")
		}
		fatal(err)
	}

	decided := 0
	for _, ok := range res.Decided {
		if ok {
			decided++
		}
	}
	fmt.Printf("converged=%v decision-diameter=%.6g (ε=%.2g) validity=%v decided=%d/%d\n",
		res.Converged, res.DecisionDiameter(), *eps, res.Valid(), decided, *n)
	fmt.Printf("throughput: %d rounds in %v — %.1f rounds/s, %d messages, %.0f msgs/s\n",
		res.Rounds, res.Elapsed.Round(time.Millisecond),
		res.RoundsPerSecond(), res.Messages, res.MessagesPerSecond())
	if *showStats {
		for id, st := range res.Stats {
			fmt.Printf("  node %-3d sent=%-6d received=%-6d omissions=%-5d rejected=%d",
				id, st.Sent, st.Received, st.Omissions, st.Rejected)
			if res.Chaos != nil {
				fmt.Printf(" dup=%-4d late=%-4d corrupt=%-4d partitioned=%d",
					st.Duplicates, st.Late, st.Corrupt, st.Partitioned)
			}
			if *pipeline > 0 {
				fmt.Printf(" stale=%-4d stalls=%-3d score=%v",
					st.StaleRounds, st.StallEvents, st.PeerMisses)
			}
			if *transport == "tcp" {
				fmt.Printf(" reconnects=%-3d dial-retries=%-3d peer-down=%d/%d",
					st.Reconnects, st.DialRetries, st.PeerDownEvents, st.PeerDownDrops)
			}
			fmt.Println()
		}
		if frames, writes := dep.Coalescing(); writes > 0 {
			fmt.Printf("  coalescing: %d frames in %d socket writes (%.2f frames/write)\n",
				frames, writes, float64(frames)/float64(writes))
		}
		if res.Chaos != nil {
			c := res.Chaos
			fmt.Printf("  chaos: injected=%d (drop=%d dup=%d corrupt=%d reorder=%d delay=%d part=%d crash=%d reset=%d dial-fail=%d)\n",
				c.Total(), c.Drops, c.Duplicated, c.Corrupted, c.Reordered, c.Delayed, c.PartitionDrops, c.CrashDrops,
				c.Resets, c.DialFails)
		}
	}
	if err := stopProf(); err != nil {
		log.Fatal(err)
	}
	if !res.Converged {
		os.Exit(1)
	}
}

// runServe hosts `instances` concurrent agreement instances on one service
// mesh, each with inputs derived from the master seed and its instance id,
// and prints the aggregate throughput and coalescing factors. Cancelling ctx
// stops submitting; in-flight instances drain.
func runServe(ctx context.Context, spec mbfaa.ServiceSpec, instances int, seed uint64, w io.Writer) error {
	svc, err := mbfaa.NewEngine().Serve(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "serving n=%d f=%d model=%v transport=%s: %d instances, %d concurrent\n",
		spec.N, spec.F, spec.Model, orDefault(spec.Transport, "memory"), instances, spec.MaxConcurrent)

	type tally struct{ converged, diverged, failed int }
	counts := make(chan tally, 1)
	stream := svc.Results()
	go func() {
		var t tally
		for ir := range stream {
			switch {
			case ir.Err != nil:
				t.failed++
			case ir.Result.Converged:
				t.converged++
			default:
				t.diverged++
			}
		}
		counts <- t
	}()

	start := time.Now()
	submitted, interrupted := 0, false
	for id := 1; id <= instances; id++ {
		_, err := svc.Submit(ctx, uint32(id), serveInputs(seed, uint32(id), spec.N, spec.InputRange))
		if err != nil {
			// A cancelled ctx can surface either way: as its own error from
			// the submission wait, or as the service closing underneath it.
			if errors.Is(err, context.Canceled) || errors.Is(err, mbfaa.ErrServiceClosed) {
				fmt.Fprintf(w, "serve: interrupted after %d submissions\n", submitted)
				interrupted = true
				break
			}
			_ = svc.Close()
			return err
		}
		submitted++
	}
	if err := svc.Close(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	t := <-counts
	st := svc.Stats()

	fmt.Fprintf(w, "served %d instances in %v — %.0f instances/s (converged=%d diverged=%d failed=%d)\n",
		submitted, elapsed.Round(time.Millisecond), float64(submitted)/elapsed.Seconds(),
		t.converged, t.diverged, t.failed)
	fmt.Fprintf(w, "coalescing: %d frames in %d flushes (%.2f frames/flush)",
		st.Frames, st.Flushes, st.FramesPerFlush())
	if st.SocketWrites > 0 {
		fmt.Fprintf(w, ", %d socket writes (%.2f frames/write)", st.SocketWrites, st.FramesPerWrite())
	}
	fmt.Fprintln(w)
	if t.failed > 0 && !interrupted {
		return fmt.Errorf("%d of %d instances failed", t.failed, submitted)
	}
	return nil
}

// serveInputs derives one instance's inputs from the master seed and its id,
// so a serve run is reproducible end to end.
func serveInputs(seed uint64, id uint32, n int, inputRange float64) []float64 {
	rng := prng.New(seed).Derive(uint64(id))
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = rng.Range(0, inputRange)
	}
	return inputs
}

// soakEpochSeed derives epoch's campaign seed from the master soak seed.
// It is simply master+epoch: prng.New splitmixes the seed, so sequential
// seeds yield decorrelated streams, and the additive form makes the printed
// epoch seed directly replayable — `-soak -epochs 1 -chaos-seed <epoch
// seed>` reruns exactly the failing epoch (inputs included, they derive
// from the same seed).
func soakEpochSeed(master uint64, epoch int) uint64 {
	return master + uint64(epoch)
}

// runSoak runs agreement epochs continuously under chaos until ctx is
// cancelled or epochs (when positive) have completed. Each epoch deploys a
// fresh cluster from base with the chaos rates seeded by soakEpochSeed,
// re-derives the epoch's inputs from the same seed, and asserts the model's
// convergence bounds (Converged within ε, Validity). On a violation it
// prints the epoch's replay seed — copy it into -chaos-seed with -epochs 1
// to reproduce the identical fault trace — and returns an error.
func runSoak(ctx context.Context, base mbfaa.ClusterSpec, chaos mbfaa.ChaosSpec, epochs int, w io.Writer) error {
	master := chaos.Seed
	fmt.Fprintf(w, "soak: n=%d f=%d model=%v chaos={drop=%g dup=%g corrupt=%g reorder=%g latency<=%v reset=%g dial-fail=%g} master-seed=%d epochs=%s\n",
		base.N, base.F, base.Model, chaos.DropRate, chaos.DupRate, chaos.CorruptRate, chaos.ReorderRate,
		chaos.LatencyMax, chaos.ResetRate, chaos.DialFailRate, master, epochCount(epochs))
	for epoch := 0; epochs <= 0 || epoch < epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			fmt.Fprintf(w, "soak: interrupted after %d epochs\n", epoch)
			return nil
		}
		seed := soakEpochSeed(master, epoch)
		spec := base
		epochChaos := chaos
		epochChaos.Seed = seed
		spec.Chaos = &epochChaos
		rng := prng.New(seed)
		spec.Inputs = make([]float64, base.N)
		for i := range spec.Inputs {
			spec.Inputs[i] = rng.Range(0, base.InputRange)
		}

		res, err := runSoakEpoch(ctx, spec)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(w, "soak: interrupted after %d epochs\n", epoch)
				return nil
			}
			var down *mbfaa.NodeDownError
			if errors.As(err, &down) {
				fmt.Fprintf(w, "epoch %d VIOLATION: %v\n", epoch, down)
				printEpochStats(w, epoch, down.Partial)
				return soakViolation(epoch, seed, err)
			}
			return fmt.Errorf("epoch %d (replay seed %d): %w", epoch, seed, err)
		}
		printEpochStats(w, epoch, res)
		if !res.Converged || !res.Valid() {
			fmt.Fprintf(w, "epoch %d VIOLATION: converged=%v validity=%v diameter=%.6g ε=%.2g\n",
				epoch, res.Converged, res.Valid(), res.DecisionDiameter(), base.Epsilon)
			return soakViolation(epoch, seed,
				fmt.Errorf("convergence bound violated: diameter %.6g, ε %.2g", res.DecisionDiameter(), base.Epsilon))
		}
	}
	fmt.Fprintf(w, "soak: %s epochs clean\n", epochCount(epochs))
	return nil
}

// runSoakEpoch deploys and runs one epoch, always releasing the links.
func runSoakEpoch(ctx context.Context, spec mbfaa.ClusterSpec) (*mbfaa.ClusterResult, error) {
	dep, err := mbfaa.NewEngine().Deploy(spec)
	if err != nil {
		return nil, err
	}
	defer func() { _ = dep.Close() }()
	return dep.Run(ctx)
}

// printEpochStats writes the one-line epoch summary; res may be a partial
// result from a NodeDownError.
func printEpochStats(w io.Writer, epoch int, res *mbfaa.ClusterResult) {
	if res == nil {
		return
	}
	var omissions, dups, late, corrupt int64
	var reconnects, peerDrops int64
	for _, st := range res.Stats {
		omissions += st.Omissions
		dups += st.Duplicates
		late += st.Late
		corrupt += st.Corrupt
		reconnects += st.Reconnects
		peerDrops += st.PeerDownDrops
	}
	faults := "none"
	if res.Chaos != nil {
		faults = fmt.Sprintf("%d (drop=%d dup=%d corrupt=%d reorder=%d delay=%d part=%d crash=%d reset=%d dial-fail=%d)",
			res.Chaos.Total(), res.Chaos.Drops, res.Chaos.Duplicated, res.Chaos.Corrupted,
			res.Chaos.Reordered, res.Chaos.Delayed, res.Chaos.PartitionDrops, res.Chaos.CrashDrops,
			res.Chaos.Resets, res.Chaos.DialFails)
	}
	fmt.Fprintf(w, "epoch %d: converged=%v diameter=%.6g rounds=%d elapsed=%v injected=%s observed={omit=%d dup=%d late=%d corrupt=%d reconnect=%d peer-drop=%d}\n",
		epoch, res.Converged, res.DecisionDiameter(), res.Rounds,
		res.Elapsed.Round(time.Millisecond), faults, omissions, dups, late, corrupt, reconnects, peerDrops)
}

// soakViolation builds the replay-instruction error every violation exits
// with: the epoch seed reruns the identical fault trace in isolation.
func soakViolation(epoch int, seed uint64, err error) error {
	return fmt.Errorf("soak violation at epoch %d: %w\nreplay this epoch: -soak -epochs 1 -chaos-seed %d (same flags otherwise)",
		epoch, err, seed)
}

// epochCount renders the -epochs flag for logs.
func epochCount(epochs int) string {
	if epochs <= 0 {
		return "unbounded"
	}
	return fmt.Sprintf("%d", epochs)
}

func modelByShort(s string) (mbfaa.Model, error) {
	for _, m := range mbfaa.Models() {
		if strings.EqualFold(m.Short(), s) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown model %q (have M1, M2, M3, M4)", s)
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
