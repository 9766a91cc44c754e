// Package perfmodel is the one deliberately synthetic layer of this
// reproduction (see DESIGN.md): analytical models of the paper's Table 3
// platforms that turn *measured* execution traces (gate counts, amplitude
// traffic, remote bytes/messages, barriers — all produced by the real
// functional simulation) into modeled latencies. Every figure of the
// paper's evaluation (Fig. 6-13 and the §5 headline) is regenerated from
// trace x platform-constant products; the constants are calibrated per
// figure family against the paper's qualitative claims and documented
// inline with their provenance.
package perfmodel

import "svsim/internal/core"

// Trace is the measured per-run quantity vector extracted from a backend
// result.
type Trace struct {
	Gates       int64 // executed operations
	Amps        int64 // amplitudes read+written by kernels
	Bytes       int64 // kernel memory traffic (16 B per amplitude)
	FlopEst     int64 // floating-point operation estimate
	TileAmps    int64 // of Amps, those visited inside cache-resident tiles
	StateBytes  int64 // resident state-vector size
	RemoteBytes int64 // one-sided remote traffic (distributed runs)
	RemoteMsgs  int64 // one-sided remote messages
	Barriers    int64 // global synchronizations
}

// TraceOf extracts a trace from an SV-Sim backend result.
func TraceOf(res *core.Result) Trace {
	// Distributed backends count each logical gate once per PE (every PE
	// participates in every gate); normalize back to logical gates.
	pes := int64(res.PEs)
	if pes < 1 {
		pes = 1
	}
	return Trace{
		Gates:       res.SV.Gates / pes,
		Amps:        res.SV.AmpsTouched,
		Bytes:       res.SV.BytesTouched,
		FlopEst:     res.SV.FlopEst,
		StateBytes:  int64(res.State.Dim) * 16,
		RemoteBytes: res.Comm.RemoteBytes,
		RemoteMsgs:  res.Comm.RemoteMessages(),
		Barriers:    res.Comm.Barriers,
	}
}

// DeviceClass distinguishes the modeling regimes.
type DeviceClass uint8

// Device classes of Table 3.
const (
	ClassCPU DeviceClass = iota
	ClassGPU
	ClassMIC
)

// Platform models one Table 3 device. CPU/MIC constants describe one core
// (Fig. 6 runs single-core); GPU constants describe the whole device.
type Platform struct {
	Name  string
	Class DeviceClass

	// CPU/MIC: per-amplitude scalar-kernel cost in ns, and the factor the
	// AVX512 kernels divide it by (the paper observes ~2x end to end).
	AmpNs        float64
	VectorFactor float64
	// CacheBytes is the capacity below which the state streams at cache
	// speed; CacheBoost divides AmpNs for cache-resident states.
	CacheBytes int64
	CacheBoost float64
	// DRAMGBps bounds streaming bandwidth for non-resident states.
	DRAMGBps float64

	// GPU/MIC: fixed per-run launch cost (kernel launch + upload) and
	// per-gate in-kernel cost (grid synchronization or, for runtimes
	// without device function pointers, parse-and-branch dispatch).
	LaunchNs   float64
	GateNs     float64
	DeviceGBps float64
}

// Table 3 platforms. Peak numbers from public spec sheets; effective
// single-core rates from common STREAM/gate-kernel microbenchmarks.
var (
	// Intel Xeon Platinum 8276M (Cascade Lake, 2.2 GHz).
	IntelP8276 = Platform{
		Name: "INTEL_P8276", Class: ClassCPU,
		AmpNs: 2.3, VectorFactor: 1, CacheBytes: 256 << 10, CacheBoost: 2.0,
		DRAMGBps: 12, GateNs: 60,
	}
	// The same CPU with the AVX512 kernels of Listing 2 (~2x, paper §4.1).
	IntelP8276AVX = Platform{
		Name: "INTEL_P8276_AVX512", Class: ClassCPU,
		AmpNs: 2.3, VectorFactor: 2.1, CacheBytes: 256 << 10, CacheBoost: 2.0,
		DRAMGBps: 12, GateNs: 60,
	}
	// AMD EPYC 7742 (Rome, 2.25 GHz) - the Fig. 6 normalization baseline.
	EPYC7742 = Platform{
		Name: "AMD_EPYC7742", Class: ClassCPU,
		AmpNs: 2.2, VectorFactor: 1, CacheBytes: 256 << 10, CacheBoost: 1.9,
		DRAMGBps: 14, GateNs: 55,
	}
	// IBM Power9 (Summit host CPU).
	Power9 = Platform{
		Name: "IBM_POWER9", Class: ClassCPU,
		AmpNs: 2.9, VectorFactor: 1, CacheBytes: 256 << 10, CacheBoost: 1.7,
		DRAMGBps: 13, GateNs: 70,
	}
	// Intel Xeon Phi 7230 (Knights Landing): light-weight Atom cores, so
	// the single-core rate is several times worse than a server core
	// (paper observation iv).
	Phi7230 = Platform{
		Name: "INTEL_PHI7230", Class: ClassMIC,
		AmpNs: 7.5, VectorFactor: 1, CacheBytes: 128 << 10, CacheBoost: 1.4,
		DRAMGBps: 6, GateNs: 180,
	}
	Phi7230AVX = Platform{
		Name: "INTEL_PHI7230_AVX512", Class: ClassMIC,
		AmpNs: 7.5, VectorFactor: 2.0, CacheBytes: 128 << 10, CacheBoost: 1.4,
		DRAMGBps: 6, GateNs: 180,
	}
	// NVIDIA V100 (Volta, 900 GB/s HBM2): one cooperative kernel per run,
	// a grid sync per gate.
	V100 = Platform{
		Name: "NVIDIA_V100", Class: ClassGPU,
		LaunchNs: 55_000, GateNs: 1_650, DeviceGBps: 830,
	}
	// NVIDIA A100 (Ampere, 1.56 TB/s HBM2e): barely faster end to end
	// because the workload is bandwidth- and sync-bound (observation iii).
	A100 = Platform{
		Name: "NVIDIA_A100", Class: ClassGPU,
		LaunchNs: 50_000, GateNs: 1_500, DeviceGBps: 1400,
	}
	// AMD MI100: the HIP runtime lacks device function pointers, so every
	// gate pays a parse-and-dispatch penalty inside the fat kernel
	// (observation v); effective bandwidth also suffers from the
	// non-inlined call tree.
	MI100 = Platform{
		Name: "AMD_MI100", Class: ClassGPU,
		LaunchNs: 70_000, GateNs: 9_500, DeviceGBps: 600,
	}
)

// Fig6Platforms lists the eight single-device platforms in the paper's
// legend order.
func Fig6Platforms() []Platform {
	return []Platform{
		EPYC7742, IntelP8276, IntelP8276AVX, Power9,
		Phi7230, Phi7230AVX, V100, A100, MI100,
	}
}

// SingleDeviceSeconds models the single-device latency of a traced run
// (Fig. 6): per-gate fixed cost plus amplitude traffic at the device's
// effective rate — the cache rate for amplitudes a tiled group visits
// inside its tiles (TileAmps) and for a state that fits the cache.
func (p Platform) SingleDeviceSeconds(tr Trace) float64 {
	switch p.Class {
	case ClassCPU, ClassMIC:
		cached := p.AmpNs / p.VectorFactor / p.CacheBoost
		amp := cached
		if tr.StateBytes > p.CacheBytes {
			// DRAM streaming floor.
			amp = max(p.AmpNs/p.VectorFactor, 16.0/p.DRAMGBps)
		}
		return (float64(tr.Gates)*p.GateNs + float64(tr.Amps-tr.TileAmps)*amp + float64(tr.TileAmps)*cached) * 1e-9
	default: // GPU
		bwNs := float64(tr.Bytes) / p.DeviceGBps
		return (p.LaunchNs + float64(tr.Gates)*p.GateNs + bwNs) * 1e-9
	}
}
