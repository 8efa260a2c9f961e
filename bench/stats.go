package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// tailMinBeyond is how many samples must lie beyond the reported tail
// percentile: fewer makes the tail a handful of outliers.
const tailMinBeyond = 10

// latencies collects per-op durations in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d)/float64(time.Millisecond)) }

// sorted returns an ascending copy.
func (l latencies) sorted() []float64 {
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of an ascending slice (the mean of the
// two middle values for even lengths); 0 for an empty slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	default:
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

// medianOf sorts a copy of vs and returns its median.
func medianOf(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return median(s)
}

// tailStat is the latency at the highest percentile that still has
// minBeyond samples beyond it: the (minBeyond+1)-th largest sample.
type tailStat struct {
	Value      float64
	Percentile float64 // 100·(n−beyond)/n
	Samples    int     // n
	Beyond     int     // samples ranked above Value
}

// tail picks the tail statistic from an ascending slice. With too few
// samples it falls back to the maximum and reports how many lie beyond
// it (none), so the caller can flag the tail as unresolved.
func tail(sorted []float64, minBeyond int) tailStat {
	n := len(sorted)
	if n == 0 {
		return tailStat{}
	}
	beyond := minBeyond
	if n <= minBeyond {
		beyond = 0
	}
	idx := n - 1 - beyond
	return tailStat{
		Value:      sorted[idx],
		Percentile: 100 * float64(n-beyond) / float64(n),
		Samples:    n,
		Beyond:     beyond,
	}
}

func (t tailStat) String() string {
	return fmt.Sprintf("p%.2f of %d samples, %d beyond", t.Percentile, t.Samples, t.Beyond)
}

// rusageWho values for getrusage(2). The syscall package names only
// RUSAGE_SELF; RUSAGE_THREAD is 1 on Linux.
const (
	rusageSelf   = syscall.RUSAGE_SELF
	rusageThread = 1
)

// cpuTime returns the user+sys CPU time of the process (rusageSelf) or of
// the calling OS thread (rusageThread).
func cpuTime(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // who is one of the two constants above
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuMeter accounts process CPU over a timed phase minus the CPU the
// benchmark's own load generator burned on its locked OS thread, so
// cpu_ms_per_op charges only the program under test.
type cpuMeter struct {
	start   time.Duration
	gen     time.Duration
	genFrom time.Duration
}

// begin starts the phase. The caller's goroutine must stay locked to its
// OS thread (runtime.LockOSThread) while it brackets generator work.
func (m *cpuMeter) begin() { m.start, m.gen = cpuTime(rusageSelf), 0 }

// genStart and genStop bracket load-generator work on the locked thread.
func (m *cpuMeter) genStart() { m.genFrom = cpuTime(rusageThread) }
func (m *cpuMeter) genStop()  { m.gen += cpuTime(rusageThread) - m.genFrom }

// end returns the program's CPU time over the phase.
func (m *cpuMeter) end() time.Duration { return programCPU(cpuTime(rusageSelf)-m.start, m.gen) }

// programCPU is the process CPU of a phase minus its generator CPU,
// floored at zero (the two clocks tick independently).
func programCPU(process, generator time.Duration) time.Duration {
	if generator > process {
		return 0
	}
	return process - generator
}

// perOpMs divides a duration over ops, in milliseconds.
func perOpMs(d time.Duration, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return float64(d) / float64(time.Millisecond) / float64(ops)
}

// resetPeakRSS resets the kernel's peak-RSS watermark (VmHWM) to the
// current RSS, so the next peakRSSMB covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM from /proc/self/status, in MiB.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		fields := bytes.Fields(sc.Bytes())
		if len(fields) == 3 && string(fields[0]) == "VmHWM:" {
			kb, err := strconv.ParseFloat(string(fields[1]), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// memSnap is the Go runtime's allocation and GC counters at one instant.
type memSnap struct {
	numGC      uint32
	pauseNs    uint64
	mallocs    uint64
	allocBytes uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.NumGC, ms.PauseTotalNs, ms.Mallocs, ms.TotalAlloc}
}

// memDelta is the runtime activity between two snapshots.
type memDelta struct {
	gcCycles   int64
	gcPause    time.Duration
	mallocs    int64
	allocBytes int64
}

func (a memSnap) to(b memSnap) memDelta {
	return memDelta{
		gcCycles:   int64(b.numGC - a.numGC),
		gcPause:    time.Duration(b.pauseNs - a.pauseNs),
		mallocs:    int64(b.mallocs - a.mallocs),
		allocBytes: int64(b.allocBytes - a.allocBytes),
	}
}

func (d *memDelta) addTo(o memDelta) {
	d.gcCycles += o.gcCycles
	d.gcPause += o.gcPause
	d.mallocs += o.mallocs
	d.allocBytes += o.allocBytes
}
