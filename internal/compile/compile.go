// Package compile is the unified circuit-preparation pipeline shared by
// every backend. It sequences gate fusion and communication-avoiding
// scheduling into one locality-aware pass and emits a single immutable
// artifact — the CompiledPlan: the executable (possibly fused) gate
// stream, the precomputed gate classifications, the sched step list, the
// pairwise exchange geometry of every remap, the logical-to-physical
// permutation trace, and fingerprints of the circuit, its parameter-free
// skeleton, and the schedule itself.
//
// The pass is locality-aware in the direction ROADMAP calls out: under
// the lazy policy the pipeline first plans the *source* stream, reads
// off where the remaps fall, and feeds those block boundaries into
// fusion so no fused gate (and no cancelled pair) ever straddles a
// remap. The fused stream is then planned for real, so the final
// schedule sees exactly the gates it will execute.
//
// Plans are cacheable: parameterized circuits in a variational sweep
// share a skeleton (gate kinds + qubit pattern, parameter values
// excluded), so an LRU Cache keyed on that skeleton lets
// batch.Runner/EnergySweep compile once per ansatz shape. A cache entry
// is the compiled template — the plan of the binding that missed, shared
// read-only — plus its bind sites: the executable ops whose gate or
// classification depends on a parameter, recorded by fusion while it
// fused (fusion.Recipe) and, with fusion off, read off the classes. A
// hit is a rebind, not a recompile: one walk of the source for the
// skeleton hashes (the cache key, and a second hash the entry compares so
// that a collision on the key costs a miss instead of running another
// circuit's constant gates), one copy of the template's op and class
// slices, and per bind site the angles re-read, the run multiplied out
// and decomposed by the code the cold path uses, and that one gate
// re-classified. Nothing
// else about a compile depends on a parameter value, except through
// each site's outcome tag — whether its run left an op, of which kind,
// and whether that op's unitary is diagonal (sched.Build lets a diagonal
// gate's targets sit anywhere). Equal tags at every site (plus, under
// block-aware fusion, equal diagonality of the parametric source ops the
// provisional plan saw) mean fusion, cancellation and scheduling would
// retrace the template's steps exactly, so a hit is bit-identical to a
// fresh compile by construction. A binding that lands on another tag —
// an rx(0), a run collapsing to the identity, a global phase appearing —
// is compiled fresh and counted as a miss.
//
// Every plan whose rank window spans more than one tile additionally
// carries a TilePlan (tile.go): maximal runs of gates whose kernels stay
// inside one cache-resident tile of a rank's amplitude arrays, so the
// step loop's tile-group step can apply a whole run of gates to each tile
// before moving to the next — one pass over the window per run instead
// of one per gate, on every rank of every grid. Tile runs never split a
// fused gate and never cross a remap or relabeling boundary; gates that
// straddle tiles (a non-diagonal target at or above the tile size) fall
// back to per-gate execution. The TilePlan is derived per compile call,
// so a cache hit still tiles according to the hitting caller's Config.
package compile

import (
	"fmt"
	"math/bits"
	"time"

	"svsim/internal/circuit"
	"svsim/internal/ckpt"
	"svsim/internal/fusion"
	"svsim/internal/gate"
	"svsim/internal/obs"
	"svsim/internal/sched"
)

// Config selects what the pipeline produces.
type Config struct {
	// Fuse enables gate fusion (block-aware under the lazy policy).
	Fuse bool
	// Sched is the scheduling policy; empty means naive.
	Sched sched.Policy
	// PEs is the partition count the plan targets (a power of two;
	// values <= 1 compile for a single device).
	PEs int
	// TileBits overrides the tile size exponent when > 0; zero derives
	// it from the plan's target-qubit strides. A tile as large as the
	// partition (TileBits >= LocalBits) attaches no TilePlan: every gate
	// then sweeps the window on its own.
	TileBits int
	// Cache, when non-nil, memoizes plans keyed on the circuit skeleton
	// so parameter re-binds skip planning.
	Cache *Cache
	// Metrics, when non-nil, receives plan-cache hit/miss counters and
	// per-stage compile-time counters.
	Metrics *obs.Metrics
}

// CompiledPlan is the immutable artifact every backend executes. Treat
// all fields as read-only: on a cache hit everything but Source, the
// Circuit/Classes slices and the entries at bind sites is the cached
// template's, shared between concurrent runs.
type CompiledPlan struct {
	Source  *circuit.Circuit // circuit as handed to Compile
	Circuit *circuit.Circuit // executable gate stream (fused when Fused)
	// Classes precomputes the control/target/unitary decomposition per
	// executable op; nil entries mark non-unitary ops, BARRIER, and
	// GPHASE (the upload step of the paper's Listing 4/5).
	Classes []*gate.Class
	Plan    *sched.Plan
	// Exchanges holds each remap's pairwise exchange geometry,
	// parallel to Plan.Steps: nil except at remap steps, and nil
	// entirely for single-partition compiles.
	Exchanges []*sched.Exchange
	// Spans maps each executable op to the source-op range it was fused
	// from; nil when fusion is off.
	Spans []fusion.Span
	// Boundaries lists source-op indices immediately preceded by a
	// remap in the provisional (pre-fusion) plan; fusion never merges
	// or cancels across one.
	Boundaries []int
	// PermTrace records the logical-to-physical permutation after each
	// remap, in remap order.
	PermTrace []circuit.Permutation
	// Runs marks the stretches the runtime executes as one pass each, in
	// plan order: runs of consecutive diagonal gates (diagrun.go) and,
	// when fused, Pauli gadgets whose steps are consecutive gate steps. A
	// property of the executable stream's skeleton and the schedule, so a
	// cache hit shares the template's.
	Runs []Run
	// Tiles is the cache-blocking schedule of the step loop's tile
	// groups; nil when a rank's window is a single tile.
	Tiles *TilePlan

	Fusion fusion.Stats

	SkeletonFP uint64 // skeleton hash (parameters excluded)
	PlanFP     uint64 // schedule-structure hash, recorded in checkpoints

	NumQubits int
	PEs       int
	LocalBits int
	Policy    sched.Policy
	Fused     bool
}

// Stats reports what one Compile call did and where the time went. A
// cache hit spends its time in BindNS (the stage counters stay zero) and
// reports the template's Fusion and Remaps.
type Stats struct {
	CacheHit bool
	Fusion   fusion.Stats
	Remaps   int
	BitSwaps int // pairwise bit exchanges across all remaps
	// PrefixGates and PrefixRemaps count the ops (gates and aliases) and
	// the remaps of the plan's classical prefix, which a run from
	// |0...0> folds into its starting basis state instead of executing.
	PrefixGates  int
	PrefixRemaps int
	DiagRuns     int // diagonal runs in the plan
	ThroughCX    int // those of them with cx members (fused plans only)
	Merged       int // gates executing inside them
	FuseNS       int64
	PlanNS       int64
	ClassifyNS   int64
	ExchangeNS   int64
	BindNS       int64
	TotalNS      int64

	Gadgets     int // Pauli gadgets the plan executes as one pass each
	GadgetGates int // gates inside them
}

// planStats copies the schedule's remap and prefix counters.
func (st *Stats) planStats(p *sched.Plan) {
	st.Remaps, st.BitSwaps = p.Remaps, p.BitSwaps
	st.PrefixGates, st.PrefixRemaps = 0, 0
	for _, step := range p.Steps[:p.Prefix] {
		if step.Kind == sched.StepRemap {
			st.PrefixRemaps++
		} else {
			st.PrefixGates++
		}
	}
}

// Compile runs the pipeline: (optionally) fuse, schedule, classify, and
// precompute exchange geometry, consulting cfg.Cache when present.
func Compile(c *circuit.Circuit, cfg Config) (*CompiledPlan, Stats, error) {
	t0 := time.Now()
	pol := cfg.Sched
	if pol == "" {
		pol = sched.Naive
	}
	p := cfg.PEs
	if p < 1 {
		p = 1
	}
	if p&(p-1) != 0 {
		return nil, Stats{}, fmt.Errorf("compile: PE count %d is not a power of two", p)
	}
	n := c.NumQubits
	localBits := n - bits.Len(uint(p-1))
	if localBits < 0 {
		return nil, Stats{}, fmt.Errorf("compile: %d PEs need at least %d qubits (have %d)", p, bits.Len(uint(p-1)), n)
	}
	// Block-aware fusion only matters when remaps can actually occur.
	blockAware := cfg.Fuse && pol == sched.Lazy && localBits < n

	var st Stats
	skel, check, err := skeletonHashes(c)
	if err != nil {
		return nil, Stats{}, err
	}
	key := cacheKey(skel, cfg.Fuse, pol, p, localBits)
	owner := false
	if cfg.Cache != nil {
		// Single-flight lookup loop: a hit returns immediately; a cold key
		// is claimed by exactly one caller (the others wait for it, then
		// hit). A binding that fits none of the key's templates (its
		// parameters change the fusion shape or a gate's diagonality)
		// drops out and recompiles without claiming.
		for {
			es := cfg.Cache.get(key)
			tb := time.Now()
			for _, e := range es {
				cp, ok := e.bind(c, check, blockAware)
				if !ok {
					continue
				}
				st.BindNS = time.Since(tb).Nanoseconds()
				// bind builds a fresh CompiledPlan per hit, so attaching
				// the tile schedule is hit-local.
				cp.Tiles = BuildTilePlan(cp, cfg.TileBits)
				st.CacheHit = true
				st.Fusion = cp.Fusion
				st.planStats(cp.Plan)
				st.runStats(cp.Runs)
				st.TotalNS = time.Since(t0).Nanoseconds()
				cfg.Cache.recordHit(e)
				recordMetrics(cfg.Metrics, &st, true)
				return cp, st, nil
			}
			if es != nil {
				st.BindNS = time.Since(tb).Nanoseconds()
				break
			}
			if cfg.Cache.begin(key) {
				owner = true
				break
			}
			cfg.Cache.wait(key)
		}
		if owner {
			defer cfg.Cache.end(key)
		}
	}
	cp, e, err := compileFresh(c, cfg, skel, check, pol, p, localBits, blockAware, &st)
	if err != nil {
		return nil, Stats{}, err
	}
	cp.Tiles = BuildTilePlan(cp, cfg.TileBits)
	if cfg.Cache != nil {
		cfg.Cache.recordMiss()
		cfg.Cache.put(key, e)
	}
	st.TotalNS = time.Since(t0).Nanoseconds()
	recordMetrics(cfg.Metrics, &st, false)
	return cp, st, nil
}

// bind is a cache hit: it writes binding c — whose second skeleton hash
// is check — into a copy of the template, touching only the bind sites.
// ok is false when c is not the skeleton the entry was compiled from (a
// collision on the cache key), or when some site's outcome tag differs
// from the template's, i.e. when a fresh compile of c would not have the
// template's shape; the caller then compiles fresh.
func (e *entry) bind(c *circuit.Circuit, check uint64, blockAware bool) (*CompiledPlan, bool) {
	if check != e.check {
		return nil, false
	}
	var buf [16]complex128
	if blockAware {
		// The boundaries came from a provisional plan of the source
		// stream; they only transfer if its gates demand the same locality.
		for _, s := range e.srcSites {
			n := gate.TargetUnitaryInto(&c.Ops[s.op].G, buf[:])
			if (gate.Matrix{N: n, Data: buf[:n*n]}).IsDiagonal() != s.diag {
				return nil, false
			}
		}
	}
	cp := e.tmpl
	cp.Source, cp.Circuit = c, c
	if e.recipe != nil && !e.recipe.Verbatim {
		ops := append([]circuit.Op(nil), e.tmpl.Circuit.Ops...)
		if !e.recipe.Rebind(c, ops) {
			return nil, false
		}
		cp.Circuit = &circuit.Circuit{Name: c.Name, NumQubits: c.NumQubits, NumClbits: c.NumClbits, Ops: ops}
	}
	// Classes of parameter-free ops are the template's own; a site gets a
	// copy (sharing the operand lists) with its unitary recomputed into
	// one slab.
	cp.Classes = append([]*gate.Class(nil), e.tmpl.Classes...)
	classes := make([]gate.Class, len(e.sites))
	data := make([]complex128, e.siteData)
	for k, i := range e.sites {
		t, cl := e.tmpl.Classes[i], &classes[k]
		*cl = *t
		nn := len(t.U.Data)
		cl.U.Data, data = data[:nn:nn], data[nn:]
		gate.TargetUnitaryInto(&cp.Circuit.Ops[i].G, cl.U.Data)
		if cl.Diag = cl.U.IsDiagonal(); cl.Diag != t.Diag {
			return nil, false
		}
		cp.Classes[i] = cl
	}
	return &cp, true
}

func compileFresh(c *circuit.Circuit, cfg Config, skel, check uint64, pol sched.Policy, p, localBits int, blockAware bool, st *Stats) (*CompiledPlan, *entry, error) {
	n := c.NumQubits
	e := &entry{check: check}
	var boundaries []int
	if blockAware {
		// Provisional plan of the source stream: its remap positions
		// become the boundaries fusion must respect.
		tp := time.Now()
		prov, err := sched.Build(c, localBits, pol)
		if err != nil {
			return nil, nil, err
		}
		st.PlanNS += time.Since(tp).Nanoseconds()
		boundaries = remapBoundaries(prov)
	}

	exec := c
	var spans []fusion.Span
	var fstats fusion.Stats
	if cfg.Fuse {
		tf := time.Now()
		exec, spans, fstats, e.recipe = fusion.OptimizeBlocks(c, boundaries)
		if e.recipe.Verbatim {
			exec = c // fusion changed nothing: the plan executes its source
		}
		st.FuseNS = time.Since(tf).Nanoseconds()
	}

	tc := time.Now()
	classes := classifyOps(exec)
	st.ClassifyNS = time.Since(tc).Nanoseconds()

	tp := time.Now()
	plan, err := sched.Build(exec, localBits, pol)
	if err != nil {
		return nil, nil, err
	}
	st.PlanNS += time.Since(tp).Nanoseconds()

	te := time.Now()
	var exchanges []*sched.Exchange
	var permTrace []circuit.Permutation
	if p > 1 {
		exchanges = make([]*sched.Exchange, len(plan.Steps))
		perm := circuit.IdentityPermutation(n)
		for si := range plan.Steps {
			step := &plan.Steps[si]
			switch step.Kind {
			case sched.StepRemap:
				if exchanges[si], err = sched.NewExchange(step.Swaps, n, localBits); err != nil {
					return nil, nil, err
				}
				for _, sw := range step.Swaps {
					perm.SwapPhysical(sw.Global, sw.Local)
				}
				permTrace = append(permTrace, perm.Clone())
			case sched.StepAlias:
				perm.SwapLogical(step.A, step.B)
			}
		}
	}
	st.ExchangeNS = time.Since(te).Nanoseconds()
	var gadgets []fusion.Gadget
	if e.recipe != nil {
		gadgets = e.recipe.Gadgets
	}
	runs := markRuns(exec, gadgets, cfg.Fuse)
	if len(plan.Steps) != len(exec.Ops) {
		// Remap and alias steps shift the gate steps. A run of diagonal
		// gates keeps its steps consecutive (the schedulers emit nothing
		// between two of them); a window a remap falls into — a gadget,
		// or a diagonal run through a cx whose target a lazy plan moves
		// first — is dropped, and its members execute as the gates they
		// are.
		ri, kept := 0, runs[:0]
		for si := range plan.Steps {
			if ri == len(runs) {
				break
			}
			if plan.Steps[si].Kind != sched.StepGate || plan.Steps[si].Op != runs[ri].Op {
				continue
			}
			run := runs[ri]
			ri++
			run.Step = si
			last := si + run.Gates - 1
			if last >= len(plan.Steps) || plan.Steps[last].Kind != sched.StepGate || plan.Steps[last].Op != run.Op+run.Gates-1 {
				continue
			}
			kept = append(kept, run)
		}
		runs = kept
	}
	if len(runs) > 0 {
		// A run is one step, which a fresh start must not land inside: the
		// prefix stops at a run's first gate (a gadget's, or a window's
		// leading cx).
		plan.Prefix = min(plan.Prefix, runs[0].Step)
	}
	st.Fusion = fstats
	st.planStats(plan)
	st.runStats(runs)

	cp := &CompiledPlan{
		Source:     c,
		Circuit:    exec,
		Classes:    classes,
		Plan:       plan,
		Exchanges:  exchanges,
		Spans:      spans,
		Boundaries: boundaries,
		PermTrace:  permTrace,
		Runs:       runs,
		Fusion:     fstats,
		SkeletonFP: skel,
		PlanFP:     PlanFingerprint(plan, p),
		NumQubits:  n,
		PEs:        p,
		LocalBits:  localBits,
		Policy:     pol,
		Fused:      cfg.Fuse,
	}
	if cfg.Cache == nil {
		return cp, nil, nil
	}
	// The template is this plan without what belongs to the binding or
	// the caller: a plan fusion left verbatim, like an unfused one,
	// executes its own source, so there is no op stream to keep either.
	e.tmpl = *cp
	e.tmpl.Source, e.tmpl.Tiles = nil, nil
	if exec == c {
		e.tmpl.Circuit = nil
	}
	if blockAware {
		// What the provisional plan read of the parameters: which of the
		// source gates whose diagonality can change with an angle were
		// diagonal.
		for i := range c.Ops {
			if g := &c.Ops[i].G; g.NP > 0 && classifiable(g) && !g.Kind.Diagonal() {
				e.srcSites = append(e.srcSites, srcSite{int32(i), gate.Classify(g).Diag})
			}
		}
	}
	if e.recipe != nil {
		for _, s := range e.recipe.Sites {
			if s.Out >= 0 && classes[s.Out] != nil {
				e.sites = append(e.sites, s.Out)
			}
		}
	} else {
		for i, cl := range classes {
			if cl != nil && c.Ops[i].G.NP > 0 {
				e.sites = append(e.sites, int32(i))
			}
		}
	}
	for _, i := range e.sites {
		e.siteData += len(classes[i].U.Data)
	}
	return cp, e, nil
}

// classifiable reports whether the pipeline classifies g: every unitary
// but BARRIER and GPHASE (the upload step of the paper's Listing 4/5).
func classifiable(g *gate.Gate) bool {
	return g.Kind.Unitary() && g.Kind != gate.BARRIER && g.Kind != gate.GPHASE
}

// classifyOps precomputes gate classifications for every classifiable
// op; other entries stay nil. Equal parameter-free gates share one class
// (read-only, like all of a plan): a stream that keeps its gadget members
// verbatim repeats a handful of h, s, sdg and cx thousands of times.
func classifyOps(c *circuit.Circuit) []*gate.Class {
	type shape struct {
		kind   gate.Kind
		qubits [gate.MaxOperands]int32
	}
	cls := make([]*gate.Class, len(c.Ops))
	seen := make(map[shape]*gate.Class)
	for i := range c.Ops {
		g := &c.Ops[i].G
		if !classifiable(g) {
			continue
		}
		if g.NP > 0 {
			cl := gate.Classify(g)
			cls[i] = &cl
			continue
		}
		sh := shape{kind: g.Kind}
		copy(sh.qubits[:], g.OperandQubits())
		if cls[i] = seen[sh]; cls[i] == nil {
			cl := gate.Classify(g)
			cls[i], seen[sh] = &cl, &cl
		}
	}
	return cls
}

// remapBoundaries reads the block structure off a plan: for every remap
// step, the op index of the gate step that triggered it (the scheduler
// emits the remap immediately before the demanding gate).
func remapBoundaries(p *sched.Plan) []int {
	var bs []int
	for si := range p.Steps {
		if p.Steps[si].Kind != sched.StepRemap {
			continue
		}
		for sj := si + 1; sj < len(p.Steps); sj++ {
			if p.Steps[sj].Kind == sched.StepGate {
				if len(bs) == 0 || bs[len(bs)-1] != p.Steps[sj].Op {
					bs = append(bs, p.Steps[sj].Op)
				}
				break
			}
		}
	}
	return bs
}

// recordMetrics publishes plan-cache and per-stage compile-time counters.
func recordMetrics(m *obs.Metrics, st *Stats, hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.Counter(obs.MetricPlanCacheHits).Add(1)
	} else {
		m.Counter(obs.MetricPlanCacheMisses).Add(1)
	}
	m.Counter(obs.MetricCompileFuseNS).Add(st.FuseNS)
	m.Counter(obs.MetricCompilePlanNS).Add(st.PlanNS)
	m.Counter(obs.MetricCompileClassifyNS).Add(st.ClassifyNS)
	m.Counter(obs.MetricCompileExchangeNS).Add(st.ExchangeNS)
	m.Counter(obs.MetricCompileBindNS).Add(st.BindNS)
	m.Counter(obs.MetricCompileNS).Add(st.TotalNS)
}

// skeletonHashes is the one whole-circuit walk a cache hit pays. Neither
// hash is ever persisted, so both fold a word at a time (two or three
// words per op) rather than FNV's byte at a time. fp keys the cache. A
// hit copies the template's constant gates on the strength of the
// skeleton alone, so 64 bits are not enough to stand for it: check is a
// second hash of the same words (and the op count), built differently,
// that entry.bind compares before it trusts a single recorded index — a
// collision on the key alone then costs a miss, as it did when a hit
// re-fused the caller's own ops. The walk also is the circuit's
// validation (circuit.Validate's tests on the words it reads anyway): err
// is Validate's error for the first op it would reject.
func skeletonHashes(c *circuit.Circuit) (fp, check uint64, err error) {
	h, k := uint64(0), uint64(len(c.Ops))
	h, k = mix(h, uint64(c.NumQubits)), mix2(k, uint64(c.NumQubits))
	h, k = mix(h, uint64(c.NumClbits)), mix2(k, uint64(c.NumClbits))
	nq, nc := c.NumQubits, c.NumClbits
	bad := -1
	for i := range c.Ops {
		op := &c.Ops[i]
		g := &op.G
		head := uint64(g.Kind) | uint64(g.NQ)<<8 | uint64(uint32(g.Cbit))<<32
		if op.Cond != nil {
			head |= 1 << 16
		}
		h, k = mix(h, head), mix2(k, head)
		ok := g.Kind != gate.MEASURE || g.Cbit >= 0 && int(g.Cbit) < nc
		for q := 0; q < int(g.NQ); q += 2 {
			w := uint64(uint32(g.Qubits[q]))
			ok = ok && uint(g.Qubits[q]) < uint(nq) // a negative index wraps above nq
			if q+1 < int(g.NQ) {
				w |= uint64(uint32(g.Qubits[q+1])) << 32
				ok = ok && uint(g.Qubits[q+1]) < uint(nq)
			}
			h, k = mix(h, w), mix2(k, w)
		}
		if cd := op.Cond; cd != nil {
			ok = ok && cd.Offset >= 0 && cd.Offset+cd.Width <= nc
			for _, w := range [...]uint64{uint64(cd.Offset), uint64(cd.Width), cd.Value} {
				h, k = mix(h, w), mix2(k, w)
			}
		}
		if !ok && bad < 0 {
			bad = i
		}
	}
	if bad >= 0 {
		return 0, 0, c.ValidateOp(bad)
	}
	return h, k, nil
}

// mix folds one word into an in-memory (never persisted) hash: xor, an
// odd multiply and a xor-shift, each a bijection of the state.
func mix(h, w uint64) uint64 {
	h = (h ^ w) * 0xff51afd7ed558ccd
	return h ^ h>>32
}

// mix2 is mix built from other parts (rotate, add, another multiplier),
// so a word chosen to steer one hash does not steer the other.
func mix2(h, w uint64) uint64 {
	return (bits.RotateLeft64(h, 27) + w) * 0x9e3779b97f4a7c15
}

// PlanFingerprint hashes the schedule structure — policy, geometry, and
// every step — so checkpoints can reject a resume under a different
// plan (a different remap sequence would place amplitudes elsewhere).
// Manifests record it, so it stays FNV-1a over the same byte stream.
func PlanFingerprint(p *sched.Plan, pes int) uint64 {
	h := ckpt.NewHash()
	h.U64(uint64(len(p.Policy)))
	h.Str(string(p.Policy))
	h.U64(uint64(p.NumQubits))
	h.U64(uint64(p.LocalBits))
	h.U64(uint64(pes))
	for si := range p.Steps {
		step := &p.Steps[si]
		h.U64(uint64(step.Kind))
		h.U64(uint64(step.Op))
		h.U64(uint64(len(step.Swaps)))
		for _, sw := range step.Swaps {
			h.U64(uint64(sw.Global))
			h.U64(uint64(sw.Local))
		}
		h.U64(uint64(step.A))
		h.U64(uint64(step.B))
	}
	return uint64(h)
}

func cacheKey(skeleton uint64, fuse bool, pol sched.Policy, pes, localBits int) uint64 {
	h := mix(skeleton, uint64(pes))
	h = mix(h, uint64(localBits))
	if fuse {
		h = mix(h, 1)
	}
	for i := 0; i < len(pol); i++ {
		h = mix(h, uint64(pol[i]))
	}
	return h
}
