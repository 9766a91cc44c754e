// Package compile is the unified circuit-preparation pipeline shared by
// every backend. It sequences gate fusion and communication-avoiding
// scheduling into one locality-aware pass and emits a single immutable
// artifact — the CompiledPlan: the executable (possibly fused) gate
// stream, the precomputed gate classifications, the sched step list, the
// all-to-all exchange geometry of every remap, the logical-to-physical
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
// batch.Runner/EnergySweep plan once per ansatz shape and re-bind
// parameters into the cached plan. Because fusion's *output shape* can
// depend on parameter values (a run may collapse to an identity for
// degenerate angles) and sched.Build consults per-gate diagonality
// (also parameter-dependent), a cache hit is verified, not trusted: the
// hit re-runs fusion with the cached boundaries and compares demand
// signatures of both streams against the cached plan's; any mismatch
// falls back to a full compile, counted as a miss. A verified hit is
// bit-identical to a fresh compile because sched.Build is a pure
// function of the demand signature.
//
// With Config.Tile set, the pipeline additionally attaches a TilePlan
// (tile.go): per schedule block, maximal runs of gates whose kernels
// stay inside one cache-resident tile of the amplitude arrays, so the
// step loop's tile-group step can apply a whole run of gates to each tile
// before moving to the next — one pass over the state vector per run
// instead of one per gate. Tile runs never split a fused gate and never
// cross a remap or relabeling boundary; gates that straddle tiles
// (a non-diagonal target at or above the tile size) fall back to
// per-gate execution. The TilePlan is derived per compile call, so a
// cache hit still tiles according to the hitting caller's Config.
package compile

import (
	"fmt"
	gohash "hash"
	"hash/fnv"
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
	// Tile attaches a cache-blocking TilePlan to the compiled plan for
	// the step loop's tile groups on a one-rank grid (see tile.go).
	Tile bool
	// TileBits overrides the tile size exponent when > 0; zero derives
	// it from the plan's target-qubit strides. Ignored unless Tile.
	TileBits int
	// Topo, when enabled, annotates the plan with the fleet's node
	// structure: remap steps gain a hierarchical two-level realization
	// (intra-node phase, then minimal inter-node phase) and provably
	// data-free initial remaps are folded into the starting layout. The
	// schedule itself is unchanged — same steps, same swaps, same plan
	// fingerprint — so checkpoints interoperate with flat plans.
	Topo sched.Topology
	// Cache, when non-nil, memoizes plans keyed on the circuit skeleton
	// so parameter re-binds skip planning.
	Cache *Cache
	// Metrics, when non-nil, receives plan-cache hit/miss counters and
	// per-stage compile-time counters.
	Metrics *obs.Metrics
}

// CompiledPlan is the immutable artifact every backend executes. Treat
// all fields as read-only: on a cache hit the Plan, Exchanges, and
// PermTrace are shared between concurrent runs.
type CompiledPlan struct {
	Source  *circuit.Circuit // circuit as handed to Compile
	Circuit *circuit.Circuit // executable gate stream (fused when Fused)
	// Classes precomputes the control/target/unitary decomposition per
	// executable op; nil entries mark non-unitary ops, BARRIER, and
	// GPHASE (the upload step of the paper's Listing 4/5).
	Classes []*gate.Class
	Plan    *sched.Plan
	// Exchanges holds the coalesced all-to-all geometry per plan step,
	// parallel to Plan.Steps; nil except at remap steps, and nil
	// entirely for single-partition compiles.
	Exchanges []*sched.Exchange
	// TwoLevels holds the hierarchical two-level realization per plan
	// step, parallel to Plan.Steps; nil except at remap steps of a
	// multi-partition compile with Config.Topo enabled. Executors that
	// find a non-nil entry run the intra phase then the inter phase in
	// place of the flat exchange at the same step.
	TwoLevels []*sched.TwoLevel
	// Topo is the node topology the plan was compiled for (zero = flat).
	Topo sched.Topology
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
	// Tiles is the cache-blocking schedule for the tiled executors; nil
	// unless the plan was compiled with Config.Tile.
	Tiles *TilePlan

	Fusion fusion.Stats

	Fingerprint uint64 // full source-circuit hash (parameters included)
	SkeletonFP  uint64 // skeleton hash (parameters excluded)
	PlanFP      uint64 // schedule-structure hash, recorded in checkpoints

	NumQubits int
	PEs       int
	LocalBits int
	Policy    sched.Policy
	Fused     bool
}

// Stats reports what one Compile call did and where the time went.
type Stats struct {
	CacheHit   bool
	Fusion     fusion.Stats
	Remaps     int
	FuseNS     int64
	PlanNS     int64
	ClassifyNS int64
	ExchangeNS int64
	TotalNS    int64
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
	if err := cfg.Topo.Validate(); err != nil {
		return nil, Stats{}, err
	}
	// Block-aware fusion only matters when remaps can actually occur.
	blockAware := cfg.Fuse && pol == sched.Lazy && localBits < n

	var st Stats
	key := cacheKey(SkeletonFingerprint(c), cfg.Fuse, pol, p, localBits, cfg.Topo.PEsPerNode)
	owner := false
	if cfg.Cache != nil {
		// Single-flight lookup loop: a verified hit returns immediately;
		// a cold key is claimed by exactly one caller (the others wait
		// for it, then hit). A present-but-unverifiable entry (parameter
		// binding changed the fusion shape or a gate's diagonality)
		// drops out and recompiles without claiming.
		for {
			present := false
			if _, present = cfg.Cache.get(key); present {
				if cp, ok := tryCached(c, cfg, key, pol, p, localBits, blockAware, &st); ok {
					if cfg.Tile {
						// tryCached builds a fresh CompiledPlan per hit
						// (only Plan/Exchanges/PermTrace are shared), so
						// attaching the tile schedule is hit-local.
						cp.Tiles = BuildTilePlan(cp, cfg.TileBits)
					}
					st.CacheHit = true
					st.TotalNS = time.Since(t0).Nanoseconds()
					cfg.Cache.recordHit(key)
					recordMetrics(cfg.Metrics, &st, true)
					return cp, st, nil
				}
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
	cp, e, err := compileFresh(c, cfg, pol, p, localBits, blockAware, &st)
	if err != nil {
		return nil, Stats{}, err
	}
	if cfg.Tile {
		cp.Tiles = BuildTilePlan(cp, cfg.TileBits)
	}
	if cfg.Cache != nil {
		cfg.Cache.recordMiss()
		cfg.Cache.put(key, e)
	}
	st.TotalNS = time.Since(t0).Nanoseconds()
	recordMetrics(cfg.Metrics, &st, false)
	return cp, st, nil
}

// tryCached attempts a verified cache hit: re-run fusion with the cached
// block boundaries, then check that the demand signatures of the source
// and executable streams match what the cached plan was built from. Any
// mismatch (a parameter binding that changed the fusion shape or a
// gate's diagonality) reports no hit and the caller compiles fresh.
func tryCached(c *circuit.Circuit, cfg Config, key uint64, pol sched.Policy, p, localBits int, blockAware bool, st *Stats) (*CompiledPlan, bool) {
	e, ok := cfg.Cache.get(key)
	if !ok {
		return nil, false
	}
	n := c.NumQubits
	if blockAware {
		// The boundaries were derived from a provisional plan of the
		// source stream; they only transfer if the source demands the
		// same locality.
		if demandSignature(c, classifyOps(c), n, localBits) != e.origSig {
			return nil, false
		}
	}
	exec := c
	var spans []fusion.Span
	var fstats fusion.Stats
	if cfg.Fuse {
		tf := time.Now()
		exec, spans, fstats = fusion.OptimizeBlocks(c, e.boundaries)
		st.FuseNS = time.Since(tf).Nanoseconds()
	}
	tc := time.Now()
	classes := classifyOps(exec)
	st.ClassifyNS = time.Since(tc).Nanoseconds()
	if demandSignature(exec, classes, n, localBits) != e.fusedSig {
		return nil, false
	}
	st.Fusion = fstats
	st.Remaps = e.plan.Remaps
	return &CompiledPlan{
		Source:      c,
		Circuit:     exec,
		Classes:     classes,
		Plan:        e.plan,
		Exchanges:   e.exchanges,
		TwoLevels:   e.twoLevels,
		Topo:        cfg.Topo,
		Spans:       spans,
		Boundaries:  e.boundaries,
		PermTrace:   e.permTrace,
		Fusion:      fstats,
		Fingerprint: ckpt.Fingerprint(c),
		SkeletonFP:  e.skeletonFP,
		PlanFP:      e.planFP,
		NumQubits:   n,
		PEs:         p,
		LocalBits:   localBits,
		Policy:      pol,
		Fused:       cfg.Fuse,
	}, true
}

func compileFresh(c *circuit.Circuit, cfg Config, pol sched.Policy, p, localBits int, blockAware bool, st *Stats) (*CompiledPlan, *entry, error) {
	n := c.NumQubits
	var boundaries []int
	var origSig uint64
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
		origSig = demandSignature(c, classifyOps(c), n, localBits)
	}

	exec := c
	var spans []fusion.Span
	var fstats fusion.Stats
	if cfg.Fuse {
		tf := time.Now()
		exec, spans, fstats = fusion.OptimizeBlocks(c, boundaries)
		st.FuseNS = time.Since(tf).Nanoseconds()
	}

	tc := time.Now()
	classes := classifyOps(exec)
	st.ClassifyNS = time.Since(tc).Nanoseconds()

	tp := time.Now()
	plan, err := sched.BuildTopo(exec, localBits, pol, cfg.Topo)
	if err != nil {
		return nil, nil, err
	}
	st.PlanNS += time.Since(tp).Nanoseconds()

	te := time.Now()
	var exchanges []*sched.Exchange
	var twoLevels []*sched.TwoLevel
	var permTrace []circuit.Permutation
	if p > 1 {
		exchanges = make([]*sched.Exchange, len(plan.Steps))
		if cfg.Topo.Enabled() {
			twoLevels = make([]*sched.TwoLevel, len(plan.Steps))
		}
		perm := circuit.IdentityPermutation(n)
		for si := range plan.Steps {
			step := &plan.Steps[si]
			switch step.Kind {
			case sched.StepRemap:
				exchanges[si] = sched.NewExchange(step.Swaps, n, localBits, p)
				if twoLevels != nil {
					twoLevels[si] = sched.SplitExchange(step.Swaps, n, localBits, p, cfg.Topo)
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
	st.Fusion = fstats
	st.Remaps = plan.Remaps

	skel := SkeletonFingerprint(c)
	cp := &CompiledPlan{
		Source:      c,
		Circuit:     exec,
		Classes:     classes,
		Plan:        plan,
		Exchanges:   exchanges,
		TwoLevels:   twoLevels,
		Topo:        cfg.Topo,
		Spans:       spans,
		Boundaries:  boundaries,
		PermTrace:   permTrace,
		Fusion:      fstats,
		Fingerprint: ckpt.Fingerprint(c),
		SkeletonFP:  skel,
		PlanFP:      PlanFingerprint(plan, p),
		NumQubits:   n,
		PEs:         p,
		LocalBits:   localBits,
		Policy:      pol,
		Fused:       cfg.Fuse,
	}
	e := &entry{
		boundaries: boundaries,
		plan:       plan,
		exchanges:  exchanges,
		twoLevels:  twoLevels,
		permTrace:  permTrace,
		skeletonFP: skel,
		planFP:     cp.PlanFP,
		origSig:    origSig,
		fusedSig:   demandSignature(exec, classes, n, localBits),
	}
	return cp, e, nil
}

// classifyOps precomputes gate classifications for every classifiable
// op (unitary, not BARRIER, not GPHASE); other entries stay nil.
func classifyOps(c *circuit.Circuit) []*gate.Class {
	cls := make([]*gate.Class, len(c.Ops))
	for i := range c.Ops {
		g := &c.Ops[i].G
		if g.Kind.Unitary() && g.Kind != gate.BARRIER && g.Kind != gate.GPHASE {
			cl := gate.Classify(g)
			cls[i] = &cl
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
	m.Counter(obs.MetricCompileNS).Add(st.TotalNS)
}

// SkeletonFingerprint hashes the parameter-free structure of a circuit:
// register sizes and per-op gate kind, operand qubits, classical bit,
// and condition. Parameter values and the circuit name are excluded, so
// all bindings of one ansatz shape share a fingerprint.
func SkeletonFingerprint(c *circuit.Circuit) uint64 {
	h := newHash()
	h.u64(uint64(c.NumQubits))
	h.u64(uint64(c.NumClbits))
	for i := range c.Ops {
		op := &c.Ops[i]
		h.u64(uint64(op.G.Kind))
		h.u64(uint64(op.G.NQ))
		for _, q := range op.G.OperandQubits() {
			h.u64(uint64(q))
		}
		h.u64(uint64(int64(op.G.Cbit)))
		if op.Cond != nil {
			h.u64(1)
			h.u64(uint64(op.Cond.Offset))
			h.u64(uint64(op.Cond.Width))
			h.u64(op.Cond.Value)
		} else {
			h.u64(0)
		}
	}
	return h.sum()
}

// PlanFingerprint hashes the schedule structure — policy, geometry, and
// every step — so checkpoints can reject a resume under a different
// plan (a different remap sequence would place amplitudes elsewhere).
func PlanFingerprint(p *sched.Plan, pes int) uint64 {
	h := newHash()
	h.str(string(p.Policy))
	h.u64(uint64(p.NumQubits))
	h.u64(uint64(p.LocalBits))
	h.u64(uint64(pes))
	for si := range p.Steps {
		step := &p.Steps[si]
		h.u64(uint64(step.Kind))
		h.u64(uint64(step.Op))
		h.u64(uint64(len(step.Swaps)))
		for _, sw := range step.Swaps {
			h.u64(uint64(sw.Global))
			h.u64(uint64(sw.Local))
		}
		h.u64(uint64(step.A))
		h.u64(uint64(step.B))
	}
	return h.sum()
}

// demandSignature hashes exactly the circuit structure sched.Build's
// decisions depend on: per op the gate kind, operand qubits, condition,
// and whether its unitary is diagonal (diagonal gates never demand
// locality). Two streams with equal signatures produce identical plans
// for the same geometry and policy, which is what makes a verified
// cache hit bit-identical to a fresh compile.
func demandSignature(c *circuit.Circuit, classes []*gate.Class, n, localBits int) uint64 {
	h := newHash()
	h.u64(uint64(n))
	h.u64(uint64(localBits))
	for i := range c.Ops {
		op := &c.Ops[i]
		h.u64(uint64(op.G.Kind))
		h.u64(uint64(op.G.NQ))
		for _, q := range op.G.OperandQubits() {
			h.u64(uint64(q))
		}
		if op.Cond != nil {
			h.u64(1)
			h.u64(uint64(op.Cond.Offset))
			h.u64(uint64(op.Cond.Width))
			h.u64(op.Cond.Value)
		} else {
			h.u64(0)
		}
		if classes[i] != nil && classes[i].Diag {
			h.u64(1)
		} else {
			h.u64(0)
		}
	}
	return h.sum()
}

func cacheKey(skeleton uint64, fuse bool, pol sched.Policy, pes, localBits, pesPerNode int) uint64 {
	h := newHash()
	h.u64(skeleton)
	if fuse {
		h.u64(1)
	} else {
		h.u64(0)
	}
	h.str(string(pol))
	h.u64(uint64(pes))
	h.u64(uint64(localBits))
	// Topology-annotated plans cache separately: the step list is shared
	// in spirit, but the Folded marks and TwoLevels artifacts are not.
	h.u64(uint64(pesPerNode))
	return h.sum()
}

// fnvWriter is a tiny FNV-1a wrapper shared by the fingerprint functions.
type fnvWriter struct {
	h   gohash.Hash64
	buf [8]byte
}

func newHash() *fnvWriter {
	return &fnvWriter{h: fnv.New64a()}
}

func (h *fnvWriter) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.buf[i] = byte(v >> uint(8*i))
	}
	h.h.Write(h.buf[:])
}

func (h *fnvWriter) str(s string) {
	h.u64(uint64(len(s)))
	h.h.Write([]byte(s))
}

func (h *fnvWriter) sum() uint64 { return h.h.Sum64() }
