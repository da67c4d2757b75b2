package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"mbfaa"
	"mbfaa/internal/transport"
)

// service-tcp: an open loop over Engine.Serve on the loopback TCP mesh. One
// goroutine submits instances on a fixed schedule, one consumer drains the
// Results stream. Each instance is N = 4, M4, F = 1 rotating, InputRange 1,
// ε = 1e-3: a computed 10-round horizon.
const (
	serviceN = 4
	// serviceRate is the offered load in instances/s, well below the mesh's
	// capacity at GOMAXPROCS=1 so that host slow phases do not build a
	// backlog. Every set-up measures that capacity: its warm-up burst keeps
	// every slot busy, and provenance reports its rate.
	serviceRate = 300
	// serviceWarmup instances run as one back-to-back burst in every setup,
	// filling the node-set pool and the writers' buffers.
	serviceWarmup = 400
	// serviceGrace bounds how long a pass waits for its last results.
	serviceGrace = 60 * time.Second
)

var serviceSpec = mbfaa.ServiceSpec{
	Model:        mbfaa.M4,
	N:            serviceN,
	F:            1,
	Epsilon:      1e-3,
	InputRange:   1,
	ScheduleName: "rotating",
	Transport:    "tcp",
}

type serviceInstance struct {
	svc     *mbfaa.Service
	cancel  context.CancelFunc
	results <-chan mbfaa.InstanceResult
	inputs  *rand.Rand
	nextID  uint32
	// burstRate is the warm-up burst's completions per second.
	burstRate float64
	// broken is set when a pass gave up on outstanding results; Close then
	// aborts the in-flight instances instead of waiting for them.
	broken bool
}

func setupService(seed uint64) (instance, error) {
	ctx, cancel := context.WithCancel(context.Background())
	svc, err := mbfaa.NewEngine().Serve(ctx, serviceSpec)
	if err != nil {
		cancel()
		return nil, err
	}
	s := &serviceInstance{
		svc:     svc,
		cancel:  cancel,
		results: svc.Results(),
		inputs:  rand.New(rand.NewPCG(seed, 0x5e)),
		nextID:  1,
	}
	meter := newWindowMeter(windowEvery, processClock, hostProbe)
	start := time.Now()
	w, err := s.drive(openLoop{start: start}, serviceWarmup, time.Time{}, meter)
	if err == nil && w.failed > 0 {
		err = fmt.Errorf("%d of %d warm-up instances failed", w.failed, serviceWarmup)
	}
	if err != nil {
		return nil, errors.Join(fmt.Errorf("warm-up: %w", err), s.Close())
	}
	s.burstRate = ratio(serviceWarmup, w.last.Sub(start).Seconds())
	return s, nil
}

func (s *serviceInstance) provenance() map[string]any {
	return map[string]any{
		"n": serviceN, "f": serviceSpec.F, "transport": serviceSpec.Transport,
		"offered_rate_per_s": serviceRate, "warmup_instances": serviceWarmup,
		"warmup_burst_per_s": s.burstRate,
		"op":                 "one service instance, timed from its due time",
	}
}

func (s *serviceInstance) Close() error {
	if s.broken {
		s.cancel()
	}
	err := s.svc.Close()
	s.cancel()
	return err
}

// instanceRecord is one instance's timeline and verdict.
type instanceRecord struct {
	due, issued, returned, done time.Time
	exec                        time.Duration
	omissions, late             int64
	ok                          bool
}

// servicePass is the outcome of one drive.
type servicePass struct {
	recs   []instanceRecord
	failed int
	meter  *windowMeter
	last   time.Time // when the last result arrived
}

// drive submits up to count instances on sched, stopping early at until
// when it is non-zero, and returns once every submitted instance's result
// has been consumed and recorded in meter.
func (s *serviceInstance) drive(sched openLoop, count int, until time.Time, meter *windowMeter) (*servicePass, error) {
	base := s.nextID
	recs := make([]instanceRecord, count)
	inputs := make([][]float64, count)
	for k := range inputs {
		in := make([]float64, serviceN)
		for i := range in {
			in[i] = s.inputs.Float64()
		}
		inputs[k] = in
	}
	pass := &servicePass{meter: meter}

	deadline := sched.due(count).Add(serviceGrace)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	total := make(chan int, 1)
	consumed := make(chan error, 1)
	go func() {
		got, want := 0, -1
		for want < 0 || got < want {
			select {
			case ir, open := <-s.results:
				if !open {
					consumed <- errors.New("results stream closed")
					return
				}
				now := time.Now()
				r := &recs[ir.ID-base]
				r.done, pass.last = now, now
				r.ok = ir.Err == nil && ir.Result.Converged && ir.Result.Valid()
				if ir.Result != nil {
					r.exec = ir.Result.Elapsed
					for _, st := range ir.Result.Stats {
						r.omissions += st.Omissions
						r.late += st.Late
					}
				}
				if !r.ok {
					pass.failed++
				}
				got++
				pass.meter.done(now, ms(dueLatency(r.due, now)))
			case want = <-total:
			case <-ctx.Done():
				consumed <- fmt.Errorf("%d results outstanding past the grace period", want-got)
				return
			}
		}
		consumed <- nil
	}()

	sent := 0
	var submitErr error
	for ; sent < count; sent++ {
		due := sched.due(sent)
		if !until.IsZero() && !due.Before(until) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		r := &recs[sent]
		r.due, r.issued = due, time.Now()
		_, submitErr = s.svc.Submit(ctx, base+uint32(sent), inputs[sent])
		if submitErr != nil {
			break
		}
		r.returned = time.Now()
	}
	total <- sent
	s.nextID = base + uint32(count)
	if err := <-consumed; err != nil || submitErr != nil {
		s.broken = true
		return nil, errors.Join(submitErr, err)
	}
	pass.recs = recs[:sent]
	return pass, nil
}

func (s *serviceInstance) measure(d time.Duration, traced bool) (*phase, error) {
	before := s.svc.Stats()
	meter := newWindowMeter(windowEvery, processClock, hostProbe)
	start := time.Now()
	count := int(d.Seconds()*serviceRate) + 1
	pass, err := s.drive(openLoop{start: start, interval: time.Second / serviceRate}, count, start.Add(d), meter)
	if err != nil {
		return nil, err
	}
	after := s.svc.Stats()

	p := &phase{attempted: len(pass.recs), failed: pass.failed, meter: pass.meter}
	var wait, exec, overhead time.Duration
	var omissions, late int64
	lags := make([]float64, len(pass.recs))
	for i, r := range pass.recs {
		lat := dueLatency(r.due, r.done)
		lags[i] = ms(lag(r.due, r.issued))
		wait += r.returned.Sub(r.issued)
		exec += r.exec
		overhead += lat - r.exec
		omissions += r.omissions
		late += r.late
	}
	if traced {
		ops := len(pass.recs)
		p.layers = serviceLayers(before, after, ops)
		p.layers["service.submit_wait_us"] = perOp(float64(wait)/float64(time.Microsecond), ops)
		p.layers["service.overhead_ms"] = perOp(ms(overhead), ops)
		p.layers["cluster.exec_ms"] = perOp(ms(exec), ops)
		p.layers["cluster.omissions_per_op"] = perOp(float64(omissions), ops)
		p.layers["cluster.late_per_op"] = perOp(float64(late), ops)
		p.layers["loadgen.lag_ms_tail"] = tailOf(lags, 99)
	}
	return p, nil
}

// serviceLayers normalises the service's lifetime counters over one pass
// of ops instances.
func serviceLayers(before, after mbfaa.ServiceStats, ops int) map[string]float64 {
	frames := float64(after.Frames - before.Frames)
	flushes := float64(after.Flushes - before.Flushes)
	drops := float64((after.Unrouted + after.Stale + after.InboxDrops) - (before.Unrouted + before.Stale + before.InboxDrops))
	sockFrames := float64(after.SocketFrames - before.SocketFrames)
	writes := float64(after.SocketWrites - before.SocketWrites)
	return map[string]float64{
		"service.frames_per_flush":   ratio(frames, flushes),
		"service.flushes_per_op":     perOp(flushes, ops),
		"service.drops_per_op":       perOp(drops, ops),
		"transport.frames_per_write": ratio(sockFrames, writes),
		"transport.writes_per_op":    perOp(writes, ops),
		"transport.bytes_per_op":     perOp(sockFrames*transport.FrameSize, ops),
	}
}

// tailOf returns xs at the highest percentile up to want that leaves
// enough samples beyond it, or the maximum of too few samples.
func tailOf(xs []float64, want float64) float64 {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	if p, _, ok := tailPercentile(len(sorted), want); ok {
		return percentile(sorted, p)
	}
	return percentile(sorted, 100)
}
