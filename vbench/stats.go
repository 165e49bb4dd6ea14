package main

import (
	"math"
	"slices"
	"syscall"
	"time"
)

// epoch anchors every timestamp the benchmark records: nanoseconds on
// the monotonic clock since process start.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// rusageWho selects whose CPU time cpuTime reads.
const (
	rusageSelf   = syscall.RUSAGE_SELF
	rusageThread = 1 // RUSAGE_THREAD: the calling OS thread only
)

// cpuTime returns user+system CPU nanoseconds consumed by the process
// or by the calling thread.
func cpuTime(who int) int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// quantile returns the q-quantile of xs by nearest rank, on a sorted
// copy; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
