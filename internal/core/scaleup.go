package core

import "svsim/internal/circuit"

// ScaleUp is the single-node multi-device backend of §3.2.2: one simulator
// instance manages all devices; the state vector is partitioned evenly
// among them in natural array order and remote partitions are reached
// through the shared peer pointer array (the paper's manually constructed
// PGAS model over GPUDirect/Infinity-Fabric peer access, Listing 4). Each
// gate ends with a multi-device grid synchronization.
//
// In this reproduction the peer-access fabric and the SHMEM fabric share
// the emulated symmetric-heap substrate; the backends differ in how the
// platform performance model prices their measured traffic (NVSwitch-class
// links here, network SHMEM in ScaleOut).
type ScaleUp struct {
	cfg Config
}

// NewScaleUp creates the scale-up backend; cfg.PEs is the device count.
func NewScaleUp(cfg Config) *ScaleUp { return &ScaleUp{cfg: cfg} }

// Name implements Backend.
func (b *ScaleUp) Name() string { return "scale-up" }

// Run implements Backend.
func (b *ScaleUp) Run(c *circuit.Circuit) (*Result, error) {
	cfg := b.cfg
	// Peer access is element-grained loads/stores inside the kernel; the
	// coalesced bulk path belongs to the SHMEM backend.
	cfg.Coalesced = false
	return RunDistributed(b.Name(), cfg, c, OneSided)
}
