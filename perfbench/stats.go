package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
)

// percentile returns the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// sorted returns a sorted copy.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSample is the process CPU split the runtime reports.
type cpuSample struct{ gc, total, idle float64 }

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/cpu/classes/idle:cpu-seconds"}

func readCPU() cpuSample {
	s := make([]metrics.Sample, len(cpuMetrics))
	for i, name := range cpuMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return cpuSample{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Float64()}
}

// gcShare is the share of the CPU time the process used between two
// samples that went to garbage collection.
func gcShare(a, b cpuSample) float64 {
	return ratio(b.gc-a.gc, (b.total-a.total)-(b.idle-a.idle))
}

// liveHeap forces a collection and returns the bytes of live heap.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// fingerprint describes the machine a result was measured on.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	DurableFS  string `json:"durable_fs"`
}

func machine(durableDir string) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		DurableFS:  fsType(durableDir),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
