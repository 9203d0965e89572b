package main

import (
	"math"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration. The benchmark runs on shared virtual machines
// whose physical cores are also busy with other tenants' work, so the same
// code takes a different CPU time from one minute to the next (up to 40%
// apart on one 2-vCPU host within a few seconds, with no hypervisor steal
// reported). Every CPU time a run reports is therefore scaled to a fixed
// reference speed: just before each measured operation, the benchmark
// times a fixed kernel on one thread, and multiplies the operation's CPU
// time by calibRef over the kernel's time (the median of the nearest few
// calibrations, see calibSpan). The kernel is this file's own
// code, so a change to coldtall never moves it; it mixes what coldtall's
// hot paths do: floating-point model arithmetic, map-keyed records and
// random reads over a few MiB.

// calibRef is the reference time of one calibration (calibKernels
// kernels): about its median thread CPU time on the Intel Xeon 2-vCPU
// host where the benchmark was defined. It only sets the scale of the
// reported figures.
const calibRef = 20 * time.Millisecond

const calibKernels = 12

// calibSink keeps the kernel's results live.
var (
	calibMu   sync.Mutex
	calibSink float64
)

var calibBuf = make([]uint64, 1<<19) // 4 MiB

type calibRecord struct {
	a, b float64
}

func calibKernel(seed int) float64 {
	s := 0.0
	for i := 1; i < 6000; i++ {
		x := float64(i + seed)
		s += math.Exp(-x/1e4)*math.Log(x)/math.Sqrt(x) + math.Pow(x, 0.37)
	}
	m := make(map[string]*calibRecord, 16)
	for i := 0; i < 1500; i++ {
		k := strconv.Itoa(i * 7919 % 1021)
		r := m[k]
		if r == nil {
			r = &calibRecord{}
			m[k] = r
		}
		r.a += float64(i)
		r.b = r.a * 0.5
	}
	x := uint64(88172645463325252) + uint64(seed)
	var acc uint64
	for i := 0; i < 30000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += calibBuf[x&(1<<19-1)]
		calibBuf[(x>>20)&(1<<19-1)] = acc
	}
	return s + float64(len(m)) + float64(acc&1)
}

// threadCPU is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// calibSpan is how many calibrations on each side of an operation's own
// one set its scale: the median of those 2*calibSpan+1 kernel times
// follows the host's speed over a second or two while a single
// calibration's jitter does not.
const calibSpan = 3

// calibrator keeps one run's calibration times.
type calibrator struct {
	samples []float64 // ms per calibration
}

// run times one calibration now, on every CPU at once, and returns its
// index. The vCPUs of a shared host need not run at one speed (each may
// share its physical core with another tenant), and the workloads use all
// of them, so a calibration is the mean of one kernel batch per CPU.
func (c *calibrator) run() int {
	n := runtime.NumCPU()
	times := make([]time.Duration, n)
	var wg sync.WaitGroup
	for t := 0; t < n; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			start := threadCPU()
			s := 0.0
			for i := 0; i < calibKernels; i++ {
				s += calibKernel(len(c.samples) + i)
			}
			times[t] = threadCPU() - start
			calibMu.Lock()
			calibSink += s
			calibMu.Unlock()
		}()
	}
	wg.Wait()
	var total time.Duration
	for _, d := range times {
		total += d
	}
	c.samples = append(c.samples, ms(total)/float64(n))
	return len(c.samples) - 1
}

// factor scales a CPU time measured right after calibration i to the
// reference speed.
func (c *calibrator) factor(i int) float64 {
	lo, hi := max(i-calibSpan, 0), min(i+calibSpan+1, len(c.samples))
	return ms(calibRef) / median(c.samples[lo:hi])
}

// series is raw CPU times, each with the calibration taken before it.
type series struct {
	raw []float64
	at  []int
}

func (s *series) add(raw float64, at int) {
	s.raw = append(s.raw, raw)
	s.at = append(s.at, at)
}

// scaled returns the series at the reference speed.
func (c *calibrator) scaled(s *series) []float64 {
	out := make([]float64, len(s.raw))
	for i, v := range s.raw {
		out[i] = v * c.factor(s.at[i])
	}
	return out
}

// record adds the run's calibration figures to its result file.
func (c *calibrator) record(out *outcome) {
	out.named["calib_ms_p50"] = median(c.samples)
	out.named["calib_samples"] = len(c.samples)
	out.named["calib_ref_ms"] = ms(calibRef)
}
