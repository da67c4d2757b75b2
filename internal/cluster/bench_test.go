package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
	"mbfaa/internal/prng"
	"mbfaa/internal/transport"
)

// noBatchLink hides the BatchSender fast path of the wrapped link, forcing
// the node onto the legacy one-write-per-message path — the "before" side
// of the frame-batching comparison.
type noBatchLink struct {
	transport.Link
}

// benchConfigs builds an honest n-node deployment running exactly rounds
// rounds (one benchmark iteration = one round).
func benchConfigs(n, rounds int) []Config {
	rng := prng.New(9)
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i] = Config{
			ID:           i,
			N:            n,
			F:            0,
			Model:        mobile.M4Buhrman,
			Algorithm:    msr.FTM{},
			Input:        rng.Range(0, 1),
			InputRange:   1,
			Epsilon:      1e-9,
			RoundTimeout: 2 * time.Second,
			Schedule:     NoFaults{},
			FixedRounds:  rounds,
		}
	}
	return cfgs
}

// BenchmarkClusterRound measures per-round cluster throughput (ns/op is
// nanoseconds per protocol round for the whole n-node deployment, all
// nodes included). The tcp pair compares the batched pipeline (one
// coalesced write per peer per accumulated batch) against the legacy
// per-message write path it replaced.
func BenchmarkClusterRound(b *testing.B) {
	const n = 16

	b.Run("memory", func(b *testing.B) {
		hub, err := transport.NewChannel(n, 8)
		if err != nil {
			b.Fatal(err)
		}
		defer func() { _ = hub.Close() }()
		links := make([]transport.Link, n)
		for i := range links {
			links[i] = hub.Link(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		if _, err := RunCluster(context.Background(), benchConfigs(n, b.N), links); err != nil {
			b.Fatal(err)
		}
	})

	// The chaos arm wraps each node's view of the same in-memory hub in a
	// zero-rate Chaos layer: every frame pays the injector's bookkeeping
	// (per-link PRNG derivation, the fault draws, the window checks) but no
	// fault ever fires, so the delta against the bare "memory" arm is the chaos overhead itself.
	// SyncRounds stays off — it is a Config policy, not a transport cost,
	// and turning it on would measure deadline waits instead of the wrapper.
	b.Run("memory-chaos-zero", func(b *testing.B) {
		hub, err := transport.NewChannel(n, 8)
		if err != nil {
			b.Fatal(err)
		}
		chaos, err := transport.NewChaos(n, transport.ChaosSpec{Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
		defer func() {
			_ = chaos.Close()
			_ = hub.Close()
		}()
		links := make([]transport.Link, n)
		for i := range links {
			links[i] = chaos.WrapLink(hub.Link(i), i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		if _, err := RunCluster(context.Background(), benchConfigs(n, b.N), links); err != nil {
			b.Fatal(err)
		}
	})

	for _, mode := range []string{"tcp-batched", "tcp-permessage"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			nodes, err := transport.NewTCPMesh(n, []byte("bench-key"))
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				for _, nd := range nodes {
					_ = nd.Close()
				}
			}()
			links := make([]transport.Link, n)
			for i := range links {
				if mode == "tcp-batched" {
					links[i] = nodes[i]
				} else {
					links[i] = noBatchLink{Link: nodes[i]}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := RunCluster(context.Background(), benchConfigs(n, b.N), links); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			var writes, frames int64
			for _, nd := range nodes {
				writes += nd.Counters().BatchWrites
				frames += nd.Counters().FramesSent
			}
			if writes > 0 {
				b.ReportMetric(float64(frames)/float64(writes), "frames/write")
			}
		})
	}
}

// BenchmarkClusterPipelined measures rounds/sec under injected latency
// jitter and a small drop rate at pipeline depth 0, 2 and 8 (ns/op is
// nanoseconds per protocol round for the whole deployment). Lockstep
// (depth 0) pays the full RoundTimeout whenever any node misses any frame;
// a pipelined node closes on its quorum as soon as the brake allows, so
// depth > 0 turns most deadline burns into millisecond rounds. The timeout
// is deliberately short — it bounds the worst case, not the common one.
func BenchmarkClusterPipelined(b *testing.B) {
	const n = 8
	const timeout = 40 * time.Millisecond
	for _, depth := range []int{0, 2, 8} {
		depth := depth
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			hub, err := transport.NewChannel(n, 8+2*depth)
			if err != nil {
				b.Fatal(err)
			}
			chaos, err := transport.NewChaos(n, transport.ChaosSpec{
				Seed:       11,
				DropRate:   0.02,
				LatencyMax: 2 * time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				_ = chaos.Close()
				_ = hub.Close()
			}()
			links := make([]transport.Link, n)
			for i := range links {
				links[i] = chaos.WrapLink(hub.Link(i), i)
			}
			cfgs := benchConfigs(n, b.N)
			for i := range cfgs {
				cfgs[i].RoundTimeout = timeout
				cfgs[i].PipelineDepth = depth
			}
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			if _, err := RunCluster(context.Background(), cfgs, links); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "rounds/s")
		})
	}
}
