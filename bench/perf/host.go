package perf

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// peakRSSMiB is the process's resident-set high-water mark so far: the
// "VmHWM: <n> kB" line of /proc/self/status; 0 when there is none (not
// Linux).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// cacheBytes reads one level of cpu0's cache hierarchy from sysfs; 0 when
// the host does not report it.
func cacheBytes(level int) int64 {
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			return 0
		}
		typ, _ := os.ReadFile(dir + "type")
		if strings.TrimSpace(string(lv)) != strconv.Itoa(level) || strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		sz, _ := os.ReadFile(dir + "size")
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		n, _ := strconv.ParseInt(s, 10, 64)
		return n * mult
	}
	return 0
}

// HostRecord describes where and on what a run was made, one line per
// fact; every run prints it.
func HostRecord(o Options) []string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	stateMiB := func(n int) float64 { return float64(int64(16)<<uint(n)) / (1 << 20) }
	var state float64
	switch o.Workload {
	case "qft22_single", "qft22_tiled_mt":
		state = stateMiB(o.Size.QFTQubits)
	case "rqc20_pgas_naive", "rqc20_pgas_lazy":
		state = stateMiB(o.Size.RQCQubits)
	case "vqe_sweep":
		state = stateMiB(o.Size.UCCSDQubits)
	case "svc_mixed":
		state = stateMiB(15) // the largest of the medium suite
	}
	return []string{
		fmt.Sprintf("host nproc=%d gomaxprocs=%d l2=%dKiB l3=%dKiB go=%s commit=%s",
			runtime.NumCPU(), runtime.GOMAXPROCS(0), cacheBytes(2)>>10, cacheBytes(3)>>10, runtime.Version(), commit),
		fmt.Sprintf("run workload=%s seed=%d seconds=%g trace=%v state=%.3gMiB", o.Workload, o.Seed, o.Seconds, o.Trace, state),
	}
}
