package core

import "svsim/internal/circuit"

// ScaleOut is the multi-node backend of §3.2.3: one SHMEM processing
// element per device, the state vector allocated in the symmetric space,
// and fine-grained one-sided get/put for remote amplitudes (Listing 5's
// nvshmem_double_g / nvshmem_double_p). Config.Coalesced selects the
// warp-coalesced bulk-transfer variant the paper recommends for NVSHMEM.
type ScaleOut struct {
	cfg Config
}

// NewScaleOut creates the scale-out backend; cfg.PEs is the PE count.
func NewScaleOut(cfg Config) *ScaleOut { return &ScaleOut{cfg: cfg} }

// Name implements Backend.
func (b *ScaleOut) Name() string { return "scale-out" }

// Run implements Backend.
func (b *ScaleOut) Run(c *circuit.Circuit) (*Result, error) {
	return RunDistributed(b.Name(), b.cfg, c, OneSided)
}
