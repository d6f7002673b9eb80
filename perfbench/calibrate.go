package main

import (
	"container/heap"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Shared machines drift: on a 2-vCPU cloud guest the same run can take 25%
// longer a few minutes later because of load on the host. The benchmark
// therefore times a fixed calibration kernel before every timed run and
// after the last, and scales each run's end-to-end times by calRef / (mean
// of the kernel times on either side of it). The kernel is part of the
// benchmark, not of the program, so a change to the program moves the
// scaled times exactly as much as the raw ones, while host drift, which
// slows the kernel and the program alike, cancels. The raw times stay in the
// provenance line.

// calRef is the kernel's time per copy on the reference machine (a 2-vCPU
// Xeon guest), so scaled times read as seconds on that machine.
const calRef = 75 * time.Millisecond

// calEvent and calQueue give the kernel the simulator's shape of work: a
// priority queue of small pointer-linked objects, MSS-sized buffer copies
// and map lookups, with the allocation and GC load that comes with them.
type calEvent struct {
	at   int64
	buf  []byte
	prev *calEvent
}

type calQueue []*calEvent

func (q calQueue) Len() int           { return len(q) }
func (q calQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q calQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *calQueue) Push(x any)        { *q = append(*q, x.(*calEvent)) }
func (q *calQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

var calSink atomic.Int64

// calKernel runs the fixed kernel once.
func calKernel() {
	q := &calQueue{}
	index := make(map[uint32]*calEvent, 1<<14)
	x := uint64(0x9e3779b97f4a7c15)
	payload := make([]byte, 1460)
	var prev *calEvent
	for i := 0; i < 40000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		e := &calEvent{at: int64(x % 1_000_000), buf: make([]byte, len(payload)), prev: prev}
		copy(e.buf, payload)
		heap.Push(q, e)
		index[uint32(x)&0x3fff] = e
		if q.Len() > 4096 {
			p := heap.Pop(q).(*calEvent)
			payload = p.buf
			prev = index[uint32(p.at)&0x3fff]
		}
	}
	calSink.Add(int64(q.Len() + len(index)))
}

// calCopies runs par copies of the kernel side by side and returns the time
// until the last one ends, divided by par.
func calCopies(par int) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calKernel()
		}()
	}
	wg.Wait()
	return time.Since(start) / time.Duration(par)
}

// calibrate returns the kernel time per copy: the faster of two timings of
// one copy per worker side by side, from a collected heap. The faster timing
// is the less disturbed by preemption. Host load on any vCPU slows a run,
// even bulk's single simulator through its GC workers, and only copies on
// every vCPU feel that as the run does.
func calibrate() time.Duration {
	runtime.GC()
	return min(calCopies(workers()), calCopies(workers()))
}
