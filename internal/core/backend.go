package core

import (
	"fmt"
	"strings"

	"svsim/internal/circuit"
	"svsim/internal/statevec"
)

// BackendInfo is what the backend table says about one backend: the
// properties the command lines, the service and the chaos harness
// validate and schedule against, so none of them keeps a list of names.
type BackendInfo struct {
	Name string
	// Distributed partitions the state across cfg.PEs communicating
	// ranks: faults, elastic restore and exchange staging apply. The
	// others are the one-rank grid.
	Distributed bool
	// OneSided moves remote amplitudes by one-sided get/put (the get/put
	// fault surface); a distributed backend without it sends two-sided
	// messages, whose fault surface is the barriers.
	OneSided bool
	// Coalesced marks the backend with a coalesced bulk-transfer variant
	// of its remote-gate path; Config.Coalesced is ignored elsewhere.
	Coalesced bool
}

// row is one backend of the table: its info, the transport its grid runs
// over and whether a worker pool splits the kernel calls of its one rank.
type row struct {
	BackendInfo
	nt newTransport
	// pooled marks the shared-memory design: one rank whose kernel calls
	// are split across a pool of cfg.PEs workers.
	pooled bool
}

// table is the one backend table. The paper's backends (Listings 3–5)
// and its MPI baseline (§2.1) are one gate loop that differs only in how
// the state array is reached, and so are these: every row is the step
// loop of runtime.go over its transport. NewBackend, Run and NewFleet
// dispatch through it, and every other surface reads it, so the
// CLI, the benchmarks, the chaos harness and the service cannot drift.
var table = []row{
	// §3.2.1: the whole circuit runs as one homogeneous loop over the
	// state array. cfg.PEs is ignored.
	{BackendInfo{Name: "single"}, localTransport, false},
	// §3.2.2's CPU path (Listing 3): one shared state array and a pool of
	// cfg.PEs worker threads that split every gate's loop with a barrier
	// per gate — the OpenMP design.
	{BackendInfo{Name: "threaded"}, localTransport, true},
	// §3.2.2: the state is partitioned evenly among cfg.PEs devices in
	// natural array order and remote partitions are reached through the
	// shared peer pointer array (Listing 4); peer access is element-grained
	// loads/stores inside the kernel. It shares the emulated
	// symmetric-heap substrate with scale-out; the platform model prices
	// its traffic as NVSwitch-class links.
	{BackendInfo{Name: "scale-up", Distributed: true, OneSided: true}, oneSidedTransport, false},
	// §3.2.3: one SHMEM processing element per device, the state in the
	// symmetric space, fine-grained one-sided get/put for remote
	// amplitudes (Listing 5); Config.Coalesced selects the warp-coalesced
	// bulk-transfer variant the paper recommends for NVSHMEM.
	{BackendInfo{Name: "scale-out", Distributed: true, OneSided: true, Coalesced: true}, oneSidedTransport, false},
	// §2.1: the traditional CPU-driven message-passing baseline — pack–
	// exchange–compute per global-qubit gate under the naive plan,
	// JUQCS-style pairwise qubit remapping under the lazy one.
	{BackendInfo{Name: "mpi", Distributed: true}, twoSidedTransport, false},
}

// lookup returns the table's row for name.
func lookup(name string) (*row, error) {
	for i := range table {
		if table[i].Name == name {
			return &table[i], nil
		}
	}
	return nil, fmt.Errorf("core: unknown backend %q (want %s)", name, strings.Join(BackendNames(nil), ", "))
}

// LookupBackend returns what the table says about backend name.
func LookupBackend(name string) (BackendInfo, bool) {
	rw, err := lookup(name)
	if err != nil {
		return BackendInfo{}, false
	}
	return rw.BackendInfo, true
}

// BackendNames lists, in table order, the backends keep accepts — every
// backend when keep is nil.
func BackendNames(keep func(BackendInfo) bool) []string {
	var names []string
	for _, rw := range table {
		if keep == nil || keep(rw.BackendInfo) {
			names = append(names, rw.Name)
		}
	}
	return names
}

// configure applies what the row implies to cfg: a one-rank row runs on
// one rank (the threaded one with a worker pool of cfg.PEs workers — a
// persistent one when cfg.Pool is set, else one for this call, which
// done closes), and Coalesced and Pool reach only the rows that read
// them.
func (rw *row) configure(cfg Config) (_ Config, done func()) {
	done = func() {}
	if !rw.Coalesced {
		cfg.Coalesced = false
	}
	if !rw.pooled {
		cfg.Pool = nil
	} else if cfg.Pool == nil {
		cfg.Pool = statevec.NewPool(max(cfg.PEs, 1))
		done = cfg.Pool.Close
	}
	if !rw.Distributed {
		cfg.PEs = 1
	}
	return cfg, done
}

// backend is the one Backend implementation: a table row's name and a
// configuration.
type backend struct {
	name string
	cfg  Config
}

// NewBackend constructs a backend by its table name.
func NewBackend(name string, cfg Config) (Backend, error) {
	if _, err := lookup(name); err != nil {
		return nil, err
	}
	return &backend{name: name, cfg: cfg}, nil
}

// NewSingleDevice creates the single-device backend of §3.2.1: the
// one-rank grid; cfg.PEs is ignored.
func NewSingleDevice(cfg Config) Backend { return &backend{name: "single", cfg: cfg} }

// NewScaleUp creates the single-node multi-device backend of §3.2.2
// (Listing 4) over cfg.PEs devices.
func NewScaleUp(cfg Config) Backend { return &backend{name: "scale-up", cfg: cfg} }

// NewScaleOut creates the multi-node SHMEM backend of §3.2.3 (Listing 5)
// over cfg.PEs processing elements.
func NewScaleOut(cfg Config) Backend { return &backend{name: "scale-out", cfg: cfg} }

// NewMPI creates the two-sided message-passing baseline of §2.1 over
// cfg.PEs ranks; cfg.Sched picks pack–exchange (naive) or qubit
// remapping (lazy).
func NewMPI(cfg Config) Backend { return &backend{name: "mpi", cfg: cfg} }

// Name implements Backend.
func (b *backend) Name() string { return b.name }

// Run implements Backend.
func (b *backend) Run(c *circuit.Circuit) (*Result, error) { return Run(b.name, b.cfg, c) }
