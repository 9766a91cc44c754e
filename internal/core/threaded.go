package core

import (
	"time"

	"svsim/internal/circuit"
	"svsim/internal/ckpt"
	"svsim/internal/gate"
	"svsim/internal/obs"
	"svsim/internal/statevec"
)

// Threaded is the single-node CPU scale-up backend of §3.2.2's CPU path
// (Listing 3): one simulator instance, one shared state array in the
// unified memory space, and a pool of worker threads that split every
// gate's loop with a barrier per gate — the OpenMP design, as opposed to
// the partitioned peer-access/SHMEM backends. cfg.PEs sets the worker
// count.
type Threaded struct {
	cfg Config
}

// NewThreaded creates the shared-memory threaded backend.
func NewThreaded(cfg Config) *Threaded { return &Threaded{cfg: cfg} }

// Name implements Backend.
func (b *Threaded) Name() string { return "threaded" }

// Run implements Backend.
func (b *Threaded) Run(c *circuit.Circuit) (*Result, error) {
	if err := checkCircuit(c, 64); err != nil {
		return nil, err
	}
	cp, cst, err := compileCircuit(b.cfg, c, 1)
	if err != nil {
		return nil, err
	}
	c = cp.Circuit
	workers := b.cfg.PEs
	if workers < 1 {
		workers = 1
	}
	pool := b.cfg.Pool
	if pool == nil {
		// One-shot run: build a pool for this call only. Fleet callers
		// pass a persistent pool instead (construct once, run many).
		pool = statevec.NewPool(workers)
		defer pool.Close()
	} else {
		workers = pool.Workers()
	}

	rt := &rtctx{
		st:  statevec.New(c.NumQubits),
		rng: newRNG(b.cfg.Seed),
	}
	rt.st.Style = b.cfg.Style
	cw := newCkptWriter(b.cfg, b.Name(), c, 1, cp.PlanFP)
	startGate := 0
	if b.cfg.Resume != "" {
		dir, m, err := resolveResume(b.cfg.Resume)
		if err != nil {
			return nil, err
		}
		if err := validateManifest(m, b.Name(), c, 1, b.cfg.Sched, cp.PlanFP); err != nil {
			return nil, err
		}
		st, err := ckpt.ReadShard(dir, m.Shards[0], c.NumQubits)
		if err != nil {
			return nil, err
		}
		st.Style = b.cfg.Style
		rt.st = st
		rt.cbits = m.Cbits
		replayDraws(rt.rng, m.Draws)
		rt.draws = m.Draws
		startGate = m.Step
	}

	// One trace track for the shared-state worker pool: the pool splits
	// every gate's loop, so gates execute one at a time and the timeline
	// is a single lane regardless of worker count.
	trk := b.cfg.Trace.Track(0)
	gm := newGateObs(b.cfg.Metrics)
	stop := b.cfg.Stop

	apply := func(g *gate.Gate) {
		switch g.Kind {
		case gate.MEASURE:
			out := rt.st.MeasureQubit(int(g.Qubits[0]), rt.draw())
			rt.cbits = setCbit(rt.cbits, int(g.Cbit), out)
		case gate.RESET:
			rt.st.ResetQubit(int(g.Qubits[0]), rt.draw())
		default:
			pool.ApplyShared(rt.st, g)
		}
	}

	start := time.Now()
	runErr := func() error {
		if b.cfg.Tile && cp.Tiles != nil {
			exec := func(op int) { apply(&c.Ops[op].G) }
			return runTiled(cp, rt, pool, exec, cw, trk, gm, b.cfg.Metrics, startGate, stop)
		}
		for t := startGate; t < len(c.Ops); t++ {
			if err := stopLocal(stop, cw, rt.st, t, startGate, rt.cbits, rt.draws); err != nil {
				return err
			}
			if t > startGate && cw.due(t) {
				if err := cw.writeLocal(rt.st, t, t, rt.cbits, rt.draws); err != nil {
					return err
				}
			}
			op := &c.Ops[t]
			if !condSatisfied(op.Cond, rt.cbits) {
				continue
			}
			if trk == nil && gm == nil {
				apply(&op.G)
				continue
			}
			g0 := time.Now()
			apply(&op.G)
			g1 := time.Now()
			gm.observe(op.G.Kind, g1.Sub(g0))
			if trk != nil {
				trk.SpanAt(gateLabel(&op.G), g0, g1, obs.SpanArgs{
					Kind: op.G.Kind.String(), Qubits: qubitList(&op.G),
				})
			}
		}
		return nil
	}()
	if ferr := cw.finish(); runErr == nil {
		runErr = ferr
	}
	if runErr != nil {
		return nil, runErr
	}
	elapsed := time.Since(start)
	res := &Result{
		Backend: b.Name(),
		State:   rt.st,
		Cbits:   rt.cbits,
		SV:      rt.st.Stats,
		Elapsed: elapsed,
		PEs:     workers,
		Compile: cst,
	}
	if cw != nil {
		res.Ckpt = cw.stats
	}
	if b.cfg.observed() {
		res.Mem = obs.TakeMemSnapshot()
	}
	return res, nil
}
