package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// copyArrayBytes is the size of each of the two arrays the copy-bandwidth
// probe copies between. The host block reports it next to the cache
// sizes: on a host whose L3 exceeds it, the probe measures bandwidth
// partly from L3, not the 4×-LLC streaming bandwidth of main memory;
// 2 × 64 MiB is what a container sharing its host's memory can spare.
const copyArrayBytes = 64 << 20

// host is the block every result carries, so figures from different
// hosts are never compared by mistake.
type host struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Threads    int     `json:"threads"`
	CopyGBps   float64 `json:"copy_gbps"` // single-thread copy, read plus write bytes
	CopyBytes  int     `json:"copy_array_bytes"`
	Caches     string  `json:"caches"`
}

func probeHost(threads int) host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Threads:    threads,
		CopyGBps:   copyGBps(),
		CopyBytes:  copyArrayBytes,
		Caches:     caches(),
	}
}

// cpuModel reads the model name the kernel reports, or "unknown".
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

// caches lists the unified caches of cpu0 as the kernel reports them,
// with the CPUs sharing each, or "unknown".
func caches() string {
	// Glob fails only on a malformed pattern, and this one is constant.
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var out []string
	for _, d := range dirs {
		read := func(name string) string {
			b, err := os.ReadFile(filepath.Join(d, name))
			if err != nil {
				return "?"
			}
			return strings.TrimSpace(string(b))
		}
		if read("type") != "Unified" {
			continue
		}
		out = append(out, fmt.Sprintf("L%s %s shared by cpus %s", read("level"), read("size"), read("shared_cpu_list")))
	}
	if len(out) == 0 {
		return "unknown"
	}
	return strings.Join(out, "; ")
}

// copyGBps is the median single-thread copy bandwidth over nine copies,
// counting the bytes read and the bytes written.
func copyGBps() float64 {
	src := make([]byte, copyArrayBytes)
	dst := make([]byte, copyArrayBytes)
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src) // fault both arrays in before timing
	rates := make([]float64, 9)
	for i := range rates {
		t0 := time.Now()
		copy(dst, src)
		rates[i] = 2 * copyArrayBytes / time.Since(t0).Seconds() / 1e9
	}
	return median(rates)
}

// median of xs (which it sorts); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
