package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// fingerprint identifies the host class and revision a result came from.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
}

func hostFingerprint(root string) fingerprint {
	return fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Revision:   revision(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// revision is the checkout's git commit, or "unknown" outside a git
// repository (an exported source tree).
func revision(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// selfPeakRSSMB is this process's VmHWM in MiB.
func selfPeakRSSMB() float64 { return peakRSSMB("self") }

// peakRSSMB is a running process's VmHWM in MiB (pid a number or "self").
func peakRSSMB(pid string) float64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// childPeakRSSMB is an exited child's peak resident set in MiB.
func childPeakRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// The end-to-end timings are CPU time (user plus system), not wall time.
// On a shared virtual machine the hypervisor can take the vCPUs away for
// stretches (steal), and the host's spare capacity drifts over minutes; a
// process's CPU time leaves that out, while its wall time does not.

// childCPU is an exited child's CPU time.
func childCPU(ps *os.ProcessState) time.Duration {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return 0
}

// selfCPU is this process's CPU time so far, all threads.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is a running process's CPU time so far, all threads, read from
// its process CPU-time clock (clock_gettime on the clock id that
// clock_getcpuclockid(3) gives: the pid bit-inverted, shifted left by 3,
// with CPUCLOCK_SCHED = 2), to the nanosecond.
func procCPU(pid int) (time.Duration, error) {
	clock := uintptr(^pid<<3 | 2)
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("CPU clock of pid %d: %w", pid, errno)
	}
	return time.Duration(ts.Nano()), nil
}
