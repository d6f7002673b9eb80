package main

import (
	"bufio"
	"fmt"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mptcpgo/internal/pool"
)

// heapSampler is the benchmark's one extra goroutine during a run: it polls
// the live heap the GC last marked and keeps the largest value seen.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

// heapSampleEvery is fine enough to see every GC cycle of the fleet
// workloads, whose cycles are hundreds of milliseconds apart.
const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: liveHeapMetric}}
		var peak uint64
		read := func() {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
		}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			read()
			select {
			case <-h.stop:
				read()
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends the sampler, waits for it and returns the peak live heap.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	return <-h.done
}

// runtimeSnap is a point-in-time read of the counters the traced run
// reports as deltas.
type runtimeSnap struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
	procCPU    time.Duration
	pool       pool.Counters
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSnap{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		procCPU:    processCPU(),
		pool:       pool.Stats(),
	}
}

// processCPU returns user plus system CPU time of this process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// promSample looks up one sample in Prometheus text exposition, where
// labels is the exact label set including braces ("" for none). Missing
// samples read as 0.
func promSample(text, name, labels string) float64 {
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	prefix := name + labels + " "
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err == nil {
				return f
			}
		}
	}
	return 0
}

// phaseSeconds reads one phase profiler total from a telemetry exposition.
func phaseSeconds(text, phase string) float64 {
	return promSample(text, "phase_wall_seconds_total", fmt.Sprintf("{phase=%q}", phase))
}
