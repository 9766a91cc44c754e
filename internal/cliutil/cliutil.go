// Package cliutil validates flag combinations shared by the svsim and
// svbench command lines, so misconfigurations fail fast with messages
// that name the offending flag instead of surfacing later as a
// mid-run backend error (or worse, after minutes of simulation).
package cliutil

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"

	"svsim/internal/ckpt"
	"svsim/internal/core"
)

// Backends lists, for an error message, the backends of core's table
// that keep accepts (every backend when keep is nil).
func Backends(keep func(core.BackendInfo) bool) string {
	return strings.Join(core.BackendNames(keep), ", ")
}

// ValidatePEs rejects PE/rank counts the distributed backends cannot
// partition a state vector across.
func ValidatePEs(pes int) error {
	if pes < 1 {
		return fmt.Errorf("-pes %d: PE count must be at least 1", pes)
	}
	if pes&(pes-1) != 0 {
		return fmt.Errorf("-pes %d: PE count must be a power of two", pes)
	}
	return nil
}

// ValidateCoalesced rejects -coalesced on a backend that would ignore it:
// only a backend the table marks Coalesced has the bulk-transfer variant
// of its remote-gate path.
func ValidateCoalesced(coalesced bool, backend string) error {
	if b, _ := core.LookupBackend(backend); coalesced && !b.Coalesced {
		return fmt.Errorf("-coalesced selects the bulk-transfer variant of the remote-gate path (%s); backend %q has no coalesced path",
			Backends(func(b core.BackendInfo) bool { return b.Coalesced }), backend)
	}
	return nil
}

// ValidateCheckpointing checks the checkpoint flag combination (every
// backend checkpoints): intervals need a directory, a full-checkpoint
// cadence needs an interval, and the directory must be writable (probed
// by creating it and touching a file).
func ValidateCheckpointing(every, fullEvery int, dir, resume string, maxRestarts int) error {
	if every == 0 && fullEvery == 0 && dir == "" && resume == "" && maxRestarts == 0 {
		return nil // checkpointing entirely off
	}
	if every < 0 {
		return fmt.Errorf("-checkpoint-every %d: interval must be positive", every)
	}
	if fullEvery < 0 {
		return fmt.Errorf("-checkpoint-full-every %d: compaction cadence cannot be negative", fullEvery)
	}
	if fullEvery > 0 && every <= 0 {
		return fmt.Errorf("-checkpoint-full-every %d needs -checkpoint-every to schedule checkpoints", fullEvery)
	}
	if maxRestarts < 0 {
		return fmt.Errorf("-max-restarts %d: restart budget cannot be negative", maxRestarts)
	}
	if every > 0 && dir == "" {
		return fmt.Errorf("-checkpoint-every %d needs -checkpoint-dir to say where checkpoints go", every)
	}
	if maxRestarts > 0 && dir == "" {
		return fmt.Errorf("-max-restarts %d needs -checkpoint-dir: recovery restarts from the latest checkpoint there", maxRestarts)
	}
	if dir != "" {
		if err := EnsureWritableDir("-checkpoint-dir", dir); err != nil {
			return err
		}
	}
	return nil
}

// EnsureWritableDir creates dir if needed and probes that a file can be
// created in it, so an unwritable output directory fails before the run
// instead of at its first write (a checkpoint) or after it (the obs
// artifacts). Errors name the directory by flag, the flag the caller
// read dir from ("-checkpoint-dir", "-obs-dir", "-workdir").
func EnsureWritableDir(flag, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("%s %s: %v", flag, dir, err)
	}
	f, err := os.CreateTemp(dir, ".writable-*")
	if err != nil {
		return fmt.Errorf("%s %s is not writable: %v", flag, dir, err)
	}
	name := f.Name()
	f.Close()
	os.Remove(name)
	return nil
}

// ValidateResume cross-checks a -resume target against the run flags
// before any state is allocated: the checkpoint's backend and schedule
// must match what the command line asks for. Its PE count need not: on
// a distributed backend another -pes reshards the checkpoint, which
// needs the op cut a v1 checkpoint never recorded, and a one-rank
// backend's checkpoint records its one rank whatever -pes counts. The
// backends re-validate (including the circuit fingerprint), but here the
// error can name the flag to change.
func ValidateResume(resume, backend string, pes int, schedName string) error {
	if resume == "" {
		return nil
	}
	_, m, err := ckpt.Resolve(resume)
	if err != nil {
		return fmt.Errorf("-resume %s: %v", resume, err)
	}
	if m.Backend != backend {
		return fmt.Errorf("-resume checkpoint was taken by backend %q; rerun with -backend %s (got -backend %s)", m.Backend, m.Backend, backend)
	}
	if m.Sched != schedName {
		return fmt.Errorf("-resume checkpoint used the %q schedule; rerun with -sched %s (got -sched %s)", m.Sched, m.Sched, schedName)
	}
	if b, _ := core.LookupBackend(backend); b.Distributed && m.PEs != pes {
		if err := ckpt.ElasticRestorable(m); err != nil {
			return fmt.Errorf("-resume checkpoint used %d PEs and cannot be resharded onto -pes %d; rerun with -pes %d: %v", m.PEs, pes, m.PEs, err)
		}
	}
	return nil
}

// FleetSpec is one fleet of a service pool, parsed from the -fleet-pool
// flag's "backend:pes" grammar.
type FleetSpec struct {
	Backend string
	PEs     int
}

// ParseFleetPool parses a -fleet-pool spec: comma-separated
// "backend:pes" entries, e.g. "scale-out:4,scale-out:2,threaded:8".
// Every backend must be a row of core's backend table and every PE count
// a power of two, mirroring what core.NewFleet will accept, so a bad pool
// fails at flag parsing instead of at daemon boot.
func ParseFleetPool(spec string) ([]FleetSpec, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("-fleet-pool is empty: need at least one backend:pes entry, e.g. scale-out:4,scale-out:2")
	}
	var fleets []FleetSpec
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		backend, pesStr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("-fleet-pool entry %q: want backend:pes (e.g. scale-out:4)", part)
		}
		if _, ok := core.LookupBackend(backend); !ok {
			return nil, fmt.Errorf("-fleet-pool entry %q: backend %q is not a fleet backend (supported: %s)", part, backend, Backends(nil))
		}
		pes, err := strconv.Atoi(pesStr)
		if err != nil {
			return nil, fmt.Errorf("-fleet-pool entry %q: PE count %q is not a number", part, pesStr)
		}
		if pes < 1 {
			return nil, fmt.Errorf("-fleet-pool entry %q: PE count must be at least 1", part)
		}
		if pes&(pes-1) != 0 {
			return nil, fmt.Errorf("-fleet-pool entry %q: PE count %d must be a power of two", part, pes)
		}
		fleets = append(fleets, FleetSpec{Backend: backend, PEs: pes})
	}
	return fleets, nil
}

// ValidateServe cross-checks the svserved flag combination the same way
// ValidateCheckpointing does for the checkpoint flags: the listen
// address must parse, the queue must have capacity, a tenant config (if
// named) must be readable, and the fleet pool must describe at least
// one valid fleet.
func ValidateServe(listen string, queueDepth int, tenantConfig, fleetPool string) error {
	if listen == "" {
		return fmt.Errorf("-listen is required: the address the service accepts jobs on (e.g. localhost:9470, or :0 for an ephemeral port)")
	}
	if _, _, err := net.SplitHostPort(listen); err != nil {
		return fmt.Errorf("-listen %q is not a host:port address: %v", listen, err)
	}
	if queueDepth < 1 {
		return fmt.Errorf("-queue-depth %d: the job queue needs capacity for at least 1 job", queueDepth)
	}
	if tenantConfig != "" {
		f, err := os.Open(tenantConfig)
		if err != nil {
			return fmt.Errorf("-tenant-config %s is not readable: %v", tenantConfig, err)
		}
		f.Close()
	}
	if _, err := ParseFleetPool(fleetPool); err != nil {
		return err
	}
	return nil
}
