package mbfaa_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"mbfaa"
)

// BenchmarkServiceThroughput measures the service end to end: how many full
// agreement instances per second one mesh sustains, and how effectively the
// frames of concurrent instances coalesce into shared writes. Each instance
// of the memory and tcp arms is a complete 4-node protocol run (2 lockstep
// rounds); those arms scale the instance count over the in-memory transport
// and add a TCP arm where frames/write is the socket-level coalescing
// factor. The warmup arm mirrors perfbench's service-tcp warm-up burst, whose
// duration is that workload's setup_s: 400 instances of N = 4, M4, F = 1
// rotating, InputRange 1, ε = 1e-3 (a computed 10-round horizon) over TCP
// with 64 in flight.
//
//	go test -bench ServiceThroughput -benchtime 1x .
func BenchmarkServiceThroughput(b *testing.B) {
	lockstep := func(transport string, concurrent int) mbfaa.ServiceSpec {
		return mbfaa.ServiceSpec{
			Model:         mbfaa.M4,
			N:             4,
			Epsilon:       1e-3,
			InputRange:    1,
			FixedRounds:   2,
			RoundTimeout:  time.Second, // deadlines fire only on omissions; generous is free
			RunHorizon:    2 * time.Minute,
			Transport:     transport,
			MaxConcurrent: concurrent,
		}
	}
	arms := []struct {
		name      string
		spec      mbfaa.ServiceSpec
		instances int
	}{
		{"memory/1k", lockstep("memory", 256), 1_000},
		{"memory/10k", lockstep("memory", 256), 10_000},
		{"memory/100k", lockstep("memory", 512), 100_000},
		{"tcp/1k", lockstep("tcp", 256), 1_000},
		{"warmup/400", mbfaa.ServiceSpec{
			Model:         mbfaa.M4,
			N:             4,
			F:             1,
			Epsilon:       1e-3,
			InputRange:    1,
			ScheduleName:  "rotating",
			Transport:     "tcp",
			MaxConcurrent: 64,
		}, 400},
	}
	for _, arm := range arms {
		b.Run(fmt.Sprintf("%s/conc=%d", arm.name, arm.spec.MaxConcurrent), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchServiceThroughput(b, arm.spec, arm.instances)
			}
		})
	}
}

// benchServiceThroughput pushes `instances` submissions through one service
// lifecycle and reports instances/sec plus the coalescing factors.
func benchServiceThroughput(b *testing.B, spec mbfaa.ServiceSpec, instances int) {
	b.Helper()
	svc, err := mbfaa.NewEngine().Serve(context.Background(), spec)
	if err != nil {
		b.Fatal(err)
	}
	inputs := []float64{0, 0.25, 0.75, 1}
	drained := make(chan int, 1)
	stream := svc.Results()
	go func() {
		completed := 0
		for ir := range stream {
			if ir.Err != nil {
				b.Errorf("instance %d: %v", ir.ID, ir.Err)
				continue
			}
			completed++
		}
		drained <- completed
	}()
	start := time.Now()
	for id := 1; id <= instances; id++ {
		if _, err := svc.Submit(context.Background(), uint32(id), inputs); err != nil {
			b.Fatal(err)
		}
	}
	if err := svc.Close(); err != nil {
		b.Fatal(err)
	}
	elapsed := time.Since(start)
	if completed := <-drained; completed != instances {
		b.Fatalf("completed %d of %d instances", completed, instances)
	}
	st := svc.Stats()
	b.ReportMetric(float64(instances)/elapsed.Seconds(), "instances/sec")
	b.ReportMetric(st.FramesPerFlush(), "frames/flush")
	if spec.Transport == "tcp" {
		b.ReportMetric(st.FramesPerWrite(), "frames/write")
	}
}
