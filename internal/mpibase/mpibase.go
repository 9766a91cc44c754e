// Package mpibase is what is left of the message-passing baseline's
// second front door: the baseline itself is the mpi row of core's one
// backend table (core.NewBackend("mpi", cfg), the two-sided transport in
// core/mpitransport.go). These three names remain only because the
// frozen svperf benchmark (bench/perf/sim.go) calls them; the package's
// tests pin the mpi row's behaviour. Nothing outside bench/ may import
// it, and the [benchmark] PR of ROADMAP item 1 deletes it.
package mpibase

import (
	"svsim/internal/core"
	"svsim/internal/sched"
	"svsim/internal/statevec"
)

// Config is the benchmark's slice of core.Config.
type Config struct {
	Ranks int
	Style statevec.KernelStyle
}

// New is the mpi backend under the naive plan (pack–exchange–compute).
func New(cfg Config) core.Backend { return core.NewMPI(core.Config{PEs: cfg.Ranks, Style: cfg.Style}) }

// NewRemap is the mpi backend under the lazy plan (qubit remapping).
func NewRemap(cfg Config) core.Backend {
	return core.NewMPI(core.Config{PEs: cfg.Ranks, Style: cfg.Style, Sched: sched.Lazy})
}
