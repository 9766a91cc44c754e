package perfmodel

import (
	"math"

	"svsim/internal/circuit"
	"svsim/internal/compile"
	"svsim/internal/gate"
	"svsim/internal/sched"
)

// Scale-up and scale-out latency models (Figs. 7-13). Work terms come from
// measured traces; communication terms come from measured PGAS stats or
// the analytic traffic model below (validated against measurement by the
// package tests).

// log2f is log base 2 with log2f(1) = 0.
func log2f(p int) float64 { return math.Log2(float64(p)) }

// CPUScaleUpSeconds models Fig. 7 (multi-core CPU over the unified memory
// space) and Fig. 8 (Xeon Phi): work splits across cores, every gate pays
// a tree-barrier synchronization that grows with the core count, and
// crossing the socket (QPI) or mesh saturation threshold adds contention.
func CPUScaleUpSeconds(tr Trace, p Platform, cores int) float64 {
	amp := p.AmpNs / p.VectorFactor
	if tr.StateBytes <= p.CacheBytes {
		amp /= p.CacheBoost
	}
	work := float64(tr.Amps) * amp / float64(cores)
	var perGateOverhead float64
	if cores > 1 {
		switch p.Class {
		case ClassMIC:
			// KNL's Omni-Path 2D mesh: per-gate fork/barrier plus strong
			// all-to-all contention that grows with active cores ("more
			// constraint bandwidth for the all-to-all communication in
			// KNL's 2D-mesh NoC than in QPI") — the sweet spot lands at
			// 2-4 cores as in Fig. 8.
			perGateOverhead = 1_000 + 2_500*float64(cores-1)
			if perGateOverhead > 60_000 {
				perGateOverhead = 60_000
			}
		default:
			// Server CPU: a flat per-gate fork/barrier cost, plus QPI
			// contention once the run spills past one socket (paper:
			// optimum at 16-32 cores, >128 regresses).
			perGateOverhead = 2_500
			if cores > 28 {
				perGateOverhead += 50 * float64(cores-28)
			}
		}
	}
	perGate := float64(tr.Gates) * perGateOverhead
	return (work + perGate) * 1e-9
}

// GPUFabric describes a multi-GPU node for the scale-up model.
type GPUFabric struct {
	Name     string
	LaunchNs float64
	// SyncNs is the per-gate multi-device synchronization cost.
	SyncNs float64
	// DevGBps is per-GPU HBM bandwidth.
	DevGBps float64
	// LinkGBps returns the per-GPU peer-access bandwidth at a device count
	// (the DGX-A100 fabric steps up when the full NVSwitch complex
	// engages, producing Fig. 10's 4-to-8 jump).
	LinkGBps func(gpus int) float64
	// DispatchSerialFrac is the fraction of the per-gate dispatch cost
	// that does not parallelize (the MI100 parse-and-branch path).
	DispatchNs         float64
	DispatchSerialFrac float64
}

// V100DGX2 is the 16-GPU NVSwitch machine of Fig. 9.
var V100DGX2 = GPUFabric{
	Name: "V100-DGX-2", LaunchNs: 500, SyncNs: 2.5, DevGBps: 830,
	LinkGBps: func(int) float64 { return 150 },
}

// DGXA100 is the 8-GPU machine of Fig. 10: the full NVSwitch fabric only
// engages past 4 GPUs.
var DGXA100 = GPUFabric{
	Name: "DGX-A100", LaunchNs: 500, SyncNs: 2.5, DevGBps: 1400,
	LinkGBps: func(gpus int) float64 {
		if gpus >= 8 {
			return 500
		}
		return 200
	},
}

// MI100Node is the 4-GPU Infinity Fabric workstation of Fig. 11: per-gate
// runtime dispatch dominates (no HIP device function pointers), so scaling
// is linear but modest.
var MI100Node = GPUFabric{
	Name: "MI100-node", LaunchNs: 8_000, SyncNs: 10, DevGBps: 600,
	LinkGBps:   func(int) float64 { return 75 },
	DispatchNs: 9_500, DispatchSerialFrac: 0.3,
}

// GPUScaleUpSeconds models Figs. 9-11: per-GPU HBM streaming for the local
// share, peer-link transfer for the measured remote bytes, per-gate fabric
// sync, and (for MI100) the partially serialized dispatch cost.
func GPUScaleUpSeconds(tr Trace, f GPUFabric, gpus int) float64 {
	local := float64(tr.Bytes-tr.RemoteBytes) / (float64(gpus) * f.DevGBps)
	remote := float64(tr.RemoteBytes) / (float64(gpus) * f.LinkGBps(gpus))
	sync := 0.0
	if gpus > 1 {
		sync = float64(tr.Gates) * f.SyncNs * (1 + 0.25*log2f(gpus))
	}
	dispatch := float64(tr.Gates) * f.DispatchNs *
		(f.DispatchSerialFrac + (1-f.DispatchSerialFrac)/float64(gpus))
	return (f.LaunchNs + local + remote + sync + dispatch) * 1e-9
}

// CommEstimate is the analytic communication model for a circuit at a PE
// count: it mirrors the distributed engine's path selection (diagonal and
// local-target gates are free; global-target gates move 32*dim/2^c bytes
// of one-sided traffic, of which a 1/P fraction stays local).
type CommEstimate struct {
	RemoteBytes int64
	RemoteMsgs  int64
	Barriers    int64
}

// EstimateComm predicts the one-sided traffic of running c on p PEs.
func EstimateComm(c *circuit.Circuit, p int) CommEstimate {
	if p <= 1 {
		return CommEstimate{}
	}
	n := c.NumQubits
	dim := int64(1) << uint(n)
	k := 0
	for 1<<uint(k) < p {
		k++
	}
	localBits := n - k
	var est CommEstimate
	for i := range c.Ops {
		g := &c.Ops[i].G
		if !g.Kind.Unitary() || g.Kind == gate.BARRIER {
			continue
		}
		est.Barriers += int64(p)
		if g.Kind == gate.GPHASE || g.MaxQubit() < localBits {
			continue
		}
		cls := gate.Classify(g)
		if cls.Diag {
			continue
		}
		globalTarget := false
		for _, t := range cls.Targets {
			if t >= localBits {
				globalTarget = true
				break
			}
		}
		if !globalTarget {
			continue
		}
		ops := 4 * dim >> uint(len(cls.Ctrls)) // re+im, get+put per amp
		remote := ops - ops/int64(p)           // ~1/P of accesses land locally
		est.RemoteMsgs += remote
		est.RemoteBytes += remote * 8
	}
	return est
}

// EstimateCommLazy predicts the one-sided traffic of running c on p PEs
// under the lazy communication-avoiding schedule (internal/sched): gates
// between block boundaries are free, and each remap step costs one
// coalesced all-to-all whose volume the exchange plan gives exactly. The
// prediction is exact for the PGAS lazy executor (the package tests hold
// it to the measured counters). The plan comes from the shared compile
// pipeline; pass a cache via EstimateCommPlan to amortize it.
func EstimateCommLazy(c *circuit.Circuit, p int) (CommEstimate, error) {
	if p <= 1 {
		return CommEstimate{}, nil
	}
	cp, _, err := compile.Compile(c, compile.Config{Sched: sched.Lazy, PEs: p})
	if err != nil {
		return CommEstimate{}, err
	}
	return EstimateCommPlan(cp), nil
}

// EstimateCommPlan reads the exact one-sided traffic off an already
// compiled plan: each remap step's exchange geometry gives the coalesced
// put count (one per compatible remote (src, dst) pair) and byte volume
// directly, with no re-planning.
func EstimateCommPlan(cp *compile.CompiledPlan) CommEstimate {
	var est CommEstimate
	p := cp.PEs
	if p <= 1 || cp.Plan == nil {
		return est
	}
	for i := range cp.Plan.Steps {
		step := &cp.Plan.Steps[i]
		// A remap in the classical prefix moves no data and synchronizes
		// nothing: a fresh run folds it into its starting basis state.
		if step.Kind != sched.StepRemap || i < cp.Plan.Prefix {
			continue
		}
		// One coalesced put per compatible remote (src, dst) pair, plus
		// the entry and mid barriers every PE pays per exchange.
		ex := cp.Exchanges[i]
		est.RemoteMsgs += ex.RemoteElems / int64(ex.BlockLen)
		est.RemoteBytes += ex.RemoteBytes()
		est.Barriers += int64(2 * p)
	}
	return est
}

// NetFabric models an inter-node network for the scale-out figures.
type NetFabric struct {
	Name string
	// PEsPerNode groups PEs into nodes; intra-node one-sided traffic runs
	// at IntraGBps, inter-node at the aggregate network bandwidth
	// NodeGBps * nodes^BisectionExp (the paper: "all-to-all communication
	// bandwidth is only increased marginally with more nodes").
	PEsPerNode   int
	IntraGBps    float64
	NodeGBps     float64
	BisectionExp float64
	// MsgRateGps caps the inter-node message injection rate per node in
	// giga-messages/s: CPU-initiated fine-grained puts saturate the NIC's
	// injection pipeline (the drag Fig. 12 shows when tiny circuits cross
	// the node boundary), while NVSHMEM's warp-coalesced GPU path is far
	// less message-limited.
	MsgRateGps float64
	// ComputeNsPerAmp is the per-PE kernel rate.
	ComputeNsPerAmp float64
	// BarrierNs is the per-gate global barrier cost at node count 1,
	// growing logarithmically with nodes at rate BarrierGrowth.
	BarrierNs     float64
	BarrierGrowth float64
}

// SummitCPU is the Fig. 12 configuration: Power9 cores with OpenSHMEM.
var SummitCPU = NetFabric{
	Name: "Summit-Power9-OpenSHMEM", PEsPerNode: 32,
	IntraGBps: 60, NodeGBps: 40, BisectionExp: 0.45,
	MsgRateGps: 1.5, ComputeNsPerAmp: 2.9, BarrierNs: 2_000, BarrierGrowth: 0.2,
}

// SummitGPU is the Fig. 13 configuration: V100s with NVSHMEM (6 GPUs per
// node; GPUDirect-RDMA keeps per-message overhead tiny and the coalesced
// accesses extract much more of the InfiniBand fabric).
var SummitGPU = NetFabric{
	Name: "Summit-V100-NVSHMEM", PEsPerNode: 6,
	IntraGBps: 300, NodeGBps: 200, BisectionExp: 0.8,
	MsgRateGps: 50, ComputeNsPerAmp: 0.02, BarrierNs: 200, BarrierGrowth: 0.1,
}

// ScaleOutSeconds models Figs. 12/13: compute splits across PEs, remote
// traffic is priced intra- vs inter-node, and per-gate barriers grow with
// the node count.
func ScaleOutSeconds(tr Trace, est CommEstimate, f NetFabric, pes int) float64 {
	nodes := (pes + f.PEsPerNode - 1) / f.PEsPerNode
	compute := float64(tr.Amps) * f.ComputeNsPerAmp / float64(pes)

	var commNs float64
	if pes > 1 {
		// Fraction of remote traffic that stays inside a node: with the
		// state split by high-order bits, a peer differing in a low
		// rank bit shares the node.
		intraFrac := 0.0
		if nodes > 1 {
			intraFrac = float64(f.PEsPerNode-1) / float64(pes-1)
		} else {
			intraFrac = 1.0
		}
		intraBytes := float64(est.RemoteBytes) * intraFrac
		interBytes := float64(est.RemoteBytes) - intraBytes
		intraNs := intraBytes / (float64(nodes) * f.IntraGBps)
		aggNet := f.NodeGBps * math.Pow(float64(nodes), f.BisectionExp)
		interNs := interBytes / aggNet
		// Inter-node traffic is additionally capped by per-node message
		// injection (fine-grained puts are message-bound before they are
		// bandwidth-bound).
		interMsgs := float64(est.RemoteMsgs) * (1 - intraFrac)
		if injNs := interMsgs / (float64(nodes) * f.MsgRateGps); injNs > interNs {
			interNs = injNs
		}
		commNs = intraNs + interNs
	}
	barrier := float64(tr.Gates) * f.BarrierNs * (1 + f.BarrierGrowth*log2f(nodes))
	return (compute + commNs + barrier) * 1e-9
}
