package main

import (
	"sort"
	"syscall"
	"time"
)

// percentileLadder is the set of tail percentiles the report may quote. The
// choosing-metrics rule is to quote the highest one that still has at least
// minTailSamples samples beyond it.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99}

const minTailSamples = 10

// highestPercentile returns the highest ladder percentile with at least
// minTailSamples of n samples beyond it, or 0 when even the median has not.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if float64(n)*(100-p)/100 >= minTailSamples {
			best = p
		}
	}
	return best
}

// percentile returns the p-th percentile (nearest rank) of sorted.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(float64(len(sorted))*p/100+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// quartiles returns the first quartile, median and third quartile of vs by
// linear interpolation (the "inclusive" method); vs is not modified.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(f float64) float64 {
		if len(s) == 0 {
			return 0
		}
		pos := f * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// steadyWindow returns the part of a closed-loop phase during which the
// window was full: from the phase's start to the completion after which the
// generator had nothing left to start, which is the window-th from last.
// The drain-down behind it, where fewer and fewer operations are in flight
// and one straggler can hold the clock, is left out of the rate. doneNS are
// the completion times of the phase's completed operations, in any order.
func steadyWindow(startNS int64, doneNS []int64, window int) (ops int, elapsed time.Duration) {
	if len(doneNS) == 0 {
		return 0, 0
	}
	sort.Slice(doneNS, func(i, j int) bool { return doneNS[i] < doneNS[j] })
	ops = len(doneNS) - window
	if ops < window {
		ops = len(doneNS) // too short a phase to have a steady part
	}
	return ops, time.Duration(doneNS[ops-1] - startNS)
}

// usage is one reading of the process-wide cost counters a timed window is
// bracketed with.
type usage struct {
	cpuNS      int64 // user+system, whole process
	mallocs    uint64
	allocBytes uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	var u usage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpuNS = ru.Utime.Nano() + ru.Stime.Nano()
	}
	u.mallocs, u.allocBytes = heapCounters()
	return u
}

func (u usage) sub(o usage) usage {
	return usage{cpuNS: u.cpuNS - o.cpuNS, mallocs: u.mallocs - o.mallocs, allocBytes: u.allocBytes - o.allocBytes}
}
