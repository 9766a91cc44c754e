package core

import (
	"math/rand"
	"time"

	"svsim/internal/circuit"
	"svsim/internal/ckpt"
	"svsim/internal/gate"
	"svsim/internal/obs"
	"svsim/internal/statevec"
)

// SingleDevice is the single-device backend of §3.2.1. It reproduces the
// paper's homogeneous-execution design: the whole circuit runs as one loop
// over preloaded gate function pointers — no per-gate type dispatch, no
// runtime parsing, no JIT. opTable is the analogue of the CUDA constant
// memory symbols; binding a circuit copies a function pointer into each
// gate object exactly once ("we preload these gate device functional
// pointers ... during environment initialization, and then directly copy a
// member functional pointer to a gate").
type SingleDevice struct {
	cfg Config
}

// NewSingleDevice creates the single-device backend.
func NewSingleDevice(cfg Config) *SingleDevice { return &SingleDevice{cfg: cfg} }

// Name implements Backend.
func (b *SingleDevice) Name() string { return "single" }

// rtctx is the runtime context handed to every gate function: the state
// vector plus the classical side (measurement randomness and bits).
type rtctx struct {
	st    *statevec.State
	rng   *rand.Rand
	draws int64 // uniform variates consumed, for checkpointed RNG replay
	cbits uint64
}

// draw consumes one uniform variate from the measurement stream.
func (rt *rtctx) draw() float64 {
	rt.draws++
	return rt.rng.Float64()
}

// opFn is the device-function-pointer type (the paper's func_t).
type opFn func(rt *rtctx, g *gate.Gate)

// opTable is built once at package initialization: the preloaded
// function-pointer table indexed by gate kind.
var opTable = buildOpTable()

func buildOpTable() [gate.NumKinds]opFn {
	var t [gate.NumKinds]opFn
	// Every unitary kind routes through the specialized kernels.
	for k := 0; k < gate.NumKinds; k++ {
		kind := gate.Kind(k)
		if kind.Unitary() {
			t[k] = func(rt *rtctx, g *gate.Gate) { rt.st.Apply(g) }
		}
	}
	t[gate.MEASURE] = func(rt *rtctx, g *gate.Gate) {
		out := rt.st.MeasureQubit(int(g.Qubits[0]), rt.draw())
		rt.cbits = setCbit(rt.cbits, int(g.Cbit), out)
	}
	t[gate.RESET] = func(rt *rtctx, g *gate.Gate) {
		rt.st.ResetQubit(int(g.Qubits[0]), rt.draw())
	}
	t[gate.BARRIER] = func(rt *rtctx, g *gate.Gate) {}
	return t
}

// boundGate is a gate object carrying its bound function pointer, the
// in-memory analogue of the paper's Gate::op member.
type boundGate struct {
	g    gate.Gate
	op   opFn
	cond *circuit.Condition
}

// bind uploads a circuit: each gate object receives its function pointer
// from the preloaded table (pure CPU copies, no lookups in the run loop).
func bind(c *circuit.Circuit) []boundGate {
	bound := make([]boundGate, len(c.Ops))
	for i := range c.Ops {
		bound[i] = boundGate{
			g:    c.Ops[i].G,
			op:   opTable[c.Ops[i].G.Kind],
			cond: c.Ops[i].Cond,
		}
	}
	return bound
}

// Run implements Backend.
func (b *SingleDevice) Run(c *circuit.Circuit) (*Result, error) {
	if err := checkCircuit(c, 64); err != nil {
		return nil, err
	}
	cp, cst, err := compileCircuit(b.cfg, c, 1)
	if err != nil {
		return nil, err
	}
	c = cp.Circuit
	bound := bind(c)
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
	trk := b.cfg.Trace.Track(0)
	gm := newGateObs(b.cfg.Metrics)
	stop := b.cfg.Stop
	start := time.Now()
	runErr := func() error {
		if b.cfg.Tile && cp.Tiles != nil {
			exec := func(op int) { bound[op].op(rt, &bound[op].g) }
			return runTiled(cp, rt, nil, exec, cw, trk, gm, b.cfg.Metrics, startGate, stop)
		}
		if trk == nil && gm == nil {
			// The homogeneous run loop: the paper's simulation_kernel.
			for t := startGate; t < len(bound); t++ {
				if err := stopLocal(stop, cw, rt.st, t, startGate, rt.cbits, rt.draws); err != nil {
					return err
				}
				if t > startGate && cw.due(t) {
					if err := cw.writeLocal(rt.st, t, t, rt.cbits, rt.draws); err != nil {
						return err
					}
				}
				bg := &bound[t]
				if !condSatisfied(bg.cond, rt.cbits) {
					continue
				}
				bg.op(rt, &bg.g)
			}
			return nil
		}
		for t := startGate; t < len(bound); t++ {
			if err := stopLocal(stop, cw, rt.st, t, startGate, rt.cbits, rt.draws); err != nil {
				return err
			}
			if t > startGate && cw.due(t) {
				if err := cw.writeLocal(rt.st, t, t, rt.cbits, rt.draws); err != nil {
					return err
				}
			}
			bg := &bound[t]
			if !condSatisfied(bg.cond, rt.cbits) {
				continue
			}
			g0 := time.Now()
			bg.op(rt, &bg.g)
			g1 := time.Now()
			gm.observe(bg.g.Kind, g1.Sub(g0))
			if trk != nil {
				trk.SpanAt(gateLabel(&bg.g), g0, g1, obs.SpanArgs{
					Kind: bg.g.Kind.String(), Qubits: qubitList(&bg.g),
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
		PEs:     1,
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
