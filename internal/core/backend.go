package core

import (
	"fmt"

	"svsim/internal/circuit"
	"svsim/internal/statevec"
)

// backend is the one Backend implementation: a name, a configuration and
// the transport its grid runs over. The paper's backends (Listings 3–5)
// are one gate loop that differs only in how the state array is reached,
// and so are these: every Run is the step loop of runtime.go.
type backend struct {
	name string
	cfg  Config
	nt   NewTransport
	// workers > 0 marks the shared-memory design: one rank whose kernel
	// calls are split across a pool of that many workers.
	workers int
}

// backends is the one backend table: NewBackend dispatches through it
// and NewFleet accepts exactly its names, so the CLI, the benchmarks,
// the chaos harness and the fleet layer cannot drift.
var backends = map[string]func(Config) Backend{
	"single":    NewSingleDevice,
	"threaded":  NewThreaded,
	"scale-up":  NewScaleUp,
	"scale-out": NewScaleOut,
}

// NewBackend constructs a core backend by name.
func NewBackend(name string, cfg Config) (Backend, error) {
	mk := backends[name]
	if mk == nil {
		return nil, fmt.Errorf("core: unknown backend %q", name)
	}
	return mk(cfg), nil
}

// NewSingleDevice creates the single-device backend of §3.2.1: the whole
// circuit runs as one homogeneous loop over the state array — no
// per-gate parsing, no JIT. It is the one-rank grid; cfg.PEs is ignored.
func NewSingleDevice(cfg Config) Backend {
	cfg.PEs = 1
	return &backend{name: "single", cfg: cfg, nt: localTransport}
}

// NewThreaded creates the single-node CPU scale-up backend of §3.2.2's
// CPU path (Listing 3): one shared state array in the unified memory
// space and a pool of worker threads that split every gate's loop with a
// barrier per gate — the OpenMP design, as opposed to the partitioned
// peer-access/SHMEM backends. It is the one-rank grid with a worker
// pool; cfg.PEs sets the worker count.
func NewThreaded(cfg Config) Backend {
	workers := cfg.PEs
	if workers < 1 {
		workers = 1
	}
	cfg.PEs = 1
	return &backend{name: "threaded", cfg: cfg, nt: localTransport, workers: workers}
}

// NewScaleUp creates the single-node multi-device backend of §3.2.2: the
// state vector is partitioned evenly among cfg.PEs devices in natural
// array order and remote partitions are reached through the shared peer
// pointer array (the paper's manually constructed PGAS model over
// GPUDirect/Infinity-Fabric peer access, Listing 4). Each gate ends with
// a multi-device grid synchronization.
//
// In this reproduction the peer-access fabric and the SHMEM fabric share
// the emulated symmetric-heap substrate; the backends differ in how the
// platform performance model prices their measured traffic (NVSwitch-class
// links here, network SHMEM in scale-out).
func NewScaleUp(cfg Config) Backend {
	// Peer access is element-grained loads/stores inside the kernel; the
	// coalesced bulk path belongs to the SHMEM backend.
	cfg.Coalesced = false
	return &backend{name: "scale-up", cfg: cfg, nt: OneSided}
}

// NewScaleOut creates the multi-node backend of §3.2.3: one SHMEM
// processing element per device (cfg.PEs of them), the state vector
// allocated in the symmetric space, and fine-grained one-sided get/put
// for remote amplitudes (Listing 5's nvshmem_double_g /
// nvshmem_double_p). Config.Coalesced selects the warp-coalesced
// bulk-transfer variant the paper recommends for NVSHMEM.
func NewScaleOut(cfg Config) Backend {
	return &backend{name: "scale-out", cfg: cfg, nt: OneSided}
}

// Name implements Backend.
func (b *backend) Name() string { return b.name }

// Run implements Backend.
func (b *backend) Run(c *circuit.Circuit) (*Result, error) {
	cfg := b.cfg
	switch {
	case b.workers == 0:
		cfg.Pool = nil // only the shared-memory design splits kernels
	case cfg.Pool == nil:
		// One-shot run: a pool for this call only. Fleet callers pass a
		// persistent one instead (construct once, run many).
		cfg.Pool = statevec.NewPool(b.workers)
		defer cfg.Pool.Close()
	}
	res, err := Run(b.name, cfg, c, b.nt)
	if err == nil && cfg.Pool != nil {
		res.PEs = cfg.Pool.Workers()
	}
	return res, err
}
