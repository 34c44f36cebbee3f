package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const heapObjects = "/memory/classes/heap/objects:bytes"

// heapSampler records the peak of live heap objects, read every few
// milliseconds from runtime/metrics, between start and stop.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapObjects}}
	read := func() {
		metrics.Read(sample)
		h.peak = max(h.peak, sample[0].Value.Uint64())
	}
	read()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stopc:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	h.wg.Wait()
	return float64(h.peak)
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// goCounters are the Go runtime's cumulative GC and allocation counters.
type goCounters struct {
	gcCycles, allocBytes float64
	gcPauseS             float64
}

func readGoCounters() goCounters {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	var pause float64
	if h := s[2].Value.Float64Histogram(); h != nil {
		// The histogram has no exact sum; weigh each bucket by its lower
		// bound (the first is -Inf or 0), which undercounts by at most one
		// bucket width per pause.
		for i, c := range h.Counts {
			if lo := h.Buckets[i]; lo > 0 {
				pause += float64(c) * lo
			}
		}
	}
	return goCounters{
		gcCycles:   float64(s[0].Value.Uint64()),
		allocBytes: float64(s[1].Value.Uint64()),
		gcPauseS:   pause,
	}
}

func (c goCounters) sub(b goCounters) goCounters {
	return goCounters{c.gcCycles - b.gcCycles, c.allocBytes - b.allocBytes, c.gcPauseS - b.gcPauseS}
}

// settle makes every timed section start from the same state: garbage
// collected, and the dirty pages of earlier sections written back, so their
// write-back does not land in the section.
func settle() {
	runtime.GC()
	syscall.Sync()
}

// hostTicks reads the machine-wide CPU time of /proc/stat: all of it, and the
// part the hypervisor gave to other guests (steal).  Both are 0 where the
// file is missing.
func hostTicks() (total, steal uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, _ := strconv.ParseUint(f, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}
