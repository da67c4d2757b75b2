package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processClock reads the wall time, the process's user+system CPU time so
// far, and its threads' run-queue wait so far.
func processClock() reading {
	r := reading{at: time.Now(), wait: runQueueWait()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return r
}

// runQueueWait sums, over the process's threads, the time each has spent
// runnable but waiting for a CPU: the second field of
// /proc/self/task/*/schedstat. It reads 0 where the kernel does not
// provide it.
func runQueueWait() time.Duration {
	paths, _ := filepath.Glob("/proc/self/task/*/schedstat")
	var wait time.Duration
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited
		}
		if f := strings.Fields(string(b)); len(f) >= 2 {
			ns, _ := strconv.ParseInt(f[1], 10, 64)
			wait += time.Duration(ns)
		}
	}
	return wait
}

// probeInput is the fixed input of the host probe: 4096 pseudo-random
// values (32 KiB, about a level-1 data cache).
var probeInput = func() []float64 {
	xs := make([]float64, 4096)
	r := rand.New(rand.NewPCG(1, 2))
	for i := range xs {
		xs[i] = r.Float64()
	}
	return xs
}()

var probeScratch = make([]float64, len(probeInput))

// hostProbe times a fixed piece of work that depends on nothing the
// benchmark measures: sorting a copy of probeInput, the fastest of three
// tries, so a preemption in one try does not count. On the host this was
// tuned on, a neighbour's memory traffic slowed it by about a third
// (275 µs to 360 µs) in the same seconds as it slowed sim-n1024's runs by
// half, while a change to the program cannot move it.
func hostProbe() time.Duration {
	best := time.Duration(math.MaxInt64)
	for range 3 {
		start := time.Now()
		copy(probeScratch, probeInput)
		slices.Sort(probeScratch)
		best = min(best, time.Since(start))
	}
	return best
}

// peakRSSMB returns the process's peak resident set in MB: VmHWM from
// /proc/self/status. (getrusage's ru_maxrss is not used: Linux carries the
// pre-exec peak of the launcher into it.)
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}
