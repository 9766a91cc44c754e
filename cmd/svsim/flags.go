package main

import (
	"fmt"
	"time"

	"svsim/internal/ckpt"
	"svsim/internal/cliutil"
	"svsim/internal/core"
	"svsim/internal/fault"
	"svsim/internal/pgas"
)

// runOpts bundles the flags whose combinations need validating before a
// run starts, so mistakes fail fast with the flag name in the message.
type runOpts struct {
	backend         string
	pes             int
	sched           string
	seed            int64
	fuse            bool
	coalesced       bool
	checkpointEvery int
	checkpointDir   string
	resume          string
	elastic         bool
	maxRestarts     int
	faultSpec       string
	barrierTimeout  time.Duration
	opRetries       int
	obsDir          string
}

// validate cross-checks the flag combination.
func (o *runOpts) validate() error {
	if _, err := core.NewBackend(o.backend, core.Config{}); err != nil {
		return err // a name outside the table, whatever else is set
	}
	if err := cliutil.ValidatePEs(o.pes); err != nil {
		return err
	}
	if err := cliutil.ValidateCheckpointing(o.checkpointEvery, o.checkpointDir, o.resume, o.maxRestarts); err != nil {
		return err
	}
	if err := cliutil.ValidateResume(o.resume, o.backend, o.pes, o.sched); err != nil {
		return err
	}
	b, _ := core.LookupBackend(o.backend)
	distributed := cliutil.Backends(func(b core.BackendInfo) bool { return b.Distributed })
	if o.elastic {
		if !b.Distributed {
			return fmt.Errorf("-elastic needs a distributed backend (%s); backend %q has no fleet to shrink", distributed, o.backend)
		}
		if o.checkpointEvery <= 0 || o.maxRestarts <= 0 {
			return fmt.Errorf("-elastic needs -checkpoint-every and -max-restarts: recovery reshards the latest checkpoint")
		}
	}
	if err := cliutil.ValidateCoalesced(o.coalesced, o.backend); err != nil {
		return err
	}
	if o.barrierTimeout < 0 {
		return fmt.Errorf("-barrier-timeout %v: deadline cannot be negative", o.barrierTimeout)
	}
	if o.opRetries < 0 {
		return fmt.Errorf("-op-retries %d: retry budget cannot be negative", o.opRetries)
	}
	if o.obsDir != "" {
		if err := cliutil.EnsureWritableDir("-obs-dir", o.obsDir); err != nil {
			return err
		}
	}
	if o.faultSpec != "" {
		if !b.Distributed {
			return fmt.Errorf("-fault needs a communicating backend (%s); backend %q has no fault surface", distributed, o.backend)
		}
		if _, err := fault.ParseSpec(o.faultSpec, o.seed); err != nil {
			return fmt.Errorf("-fault %q: %v", o.faultSpec, err)
		}
	}
	return nil
}

// defaultPEs is -pes when it is not given: on a distributed backend the
// PE count a -resume checkpoint was taken on — forgetting -pes continues
// it in place rather than resharding it onto one PE — and one otherwise.
// An unreadable checkpoint is validate's to report.
func defaultPEs(resume, backend string) int {
	if b, _ := core.LookupBackend(backend); b.Distributed && resume != "" {
		if _, m, err := ckpt.Resolve(resume); err == nil {
			return m.PEs
		}
	}
	return 1
}

// injector builds the fault injector, nil when no spec was given.
// validate must have accepted the spec first.
func (o *runOpts) injector() *fault.Injector {
	if o.faultSpec == "" {
		return nil
	}
	in, err := fault.ParseSpec(o.faultSpec, o.seed)
	if err != nil {
		fatal(err)
	}
	return in
}

// timeouts maps the deadline flags onto the PGAS runtime knobs.
func (o *runOpts) timeouts() pgas.Timeouts {
	return pgas.Timeouts{Barrier: o.barrierTimeout, OpRetries: o.opRetries}
}
