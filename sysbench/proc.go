package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is the environment recorded next to every result, so a run slowed
// by the host is visible beside its numbers.
type env struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	Seed       int64   `json:"seed"`
	StealFrac  float64 `json:"steal_frac"`
}

func readEnv(seed int64) env {
	return env{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Seed:       seed,
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

// cpuTicks reads the machine-wide steal and total jiffies from /proc/stat
// (zeros where the file is unavailable).
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// procSample is one reading of the process counters a measured phase is
// bracketed by.
type procSample struct {
	wall       time.Time
	cpu        time.Duration // user + system
	gcCPU      float64       // seconds of CPU the garbage collector used
	totalAlloc uint64
	numGC      uint32
	steal      uint64
	ticks      uint64
}

var gcCPUMetric = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcCPUMetric)
	s := procSample{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
	}
	if gcCPUMetric[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = gcCPUMetric[0].Value.Float64()
	}
	s.steal, s.ticks = cpuTicks()
	return s
}

// procDelta is what happened to the process between two samples.
type procDelta struct {
	wall, cpu  time.Duration
	gcCPU      float64
	allocBytes uint64
	gcs        uint32
	stealFrac  float64
}

func (a procSample) to(b procSample) procDelta {
	d := procDelta{
		wall:       b.wall.Sub(a.wall),
		cpu:        b.cpu - a.cpu,
		gcCPU:      b.gcCPU - a.gcCPU,
		allocBytes: b.totalAlloc - a.totalAlloc,
		gcs:        b.numGC - a.numGC,
	}
	if b.ticks > a.ticks {
		d.stealFrac = float64(b.steal-a.steal) / float64(b.ticks-a.ticks)
	}
	return d
}

// heapMiB is the live heap after a full collection.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
