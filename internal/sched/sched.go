// Package sched implements the communication-avoiding scheduler for the
// distributed backends. The paper's scale-out design makes the
// fine-grained remote traffic of global-qubit gates cheap; the
// complementary lever (mpiQulacs, JUQCS, and the lazy-qubit-reordering
// line of work) is to avoid that traffic entirely: track a
// logical-to-physical qubit permutation, batch gates that act on
// currently-local qubits into blocks, and pay one coalesced global
// remap exchange only at block boundaries.
//
// The planner runs ahead of execution on the host (the circuit is
// uploaded once, so everything derivable is derived up front, in the
// spirit of the paper's Listing 4/5 upload step) and emits a Plan: a
// step list interleaving gate applications, virtual qubit relabelings
// (SWAP gates absorbed into the permutation at zero cost), and remap
// steps that physically exchange global bits with local ones. Victim
// selection is Belady-style — evict the local qubit whose next
// locality-demanding use lies furthest in the future — and each remap
// opportunistically prefetches soon-needed global qubits so several
// reorders coalesce into one exchange.
package sched

import (
	"fmt"
	"sort"

	"svsim/internal/circuit"
	"svsim/internal/gate"
)

// Policy selects a scheduling strategy for the distributed backends.
type Policy string

const (
	// Naive is the paper's baseline schedule: the permutation stays the
	// identity and every global-qubit gate pays its remote traffic.
	Naive Policy = "naive"
	// Lazy defers and coalesces qubit reorders: gates run in local
	// blocks separated by batched remap exchanges.
	Lazy Policy = "lazy"
)

// ParsePolicy validates a -sched flag value.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case Naive, Lazy:
		return Policy(s), nil
	case "":
		return Naive, nil
	}
	return "", fmt.Errorf("sched: unknown policy %q (want naive or lazy)", s)
}

// StepKind discriminates plan steps.
type StepKind uint8

const (
	// StepGate executes one circuit operation at the current physical
	// qubit positions.
	StepGate StepKind = iota
	// StepRemap physically exchanges global bits with local bits: one
	// coalesced all-to-all (NewExchange) on the PGAS backends, pairwise
	// partition exchanges on the message-passing baseline.
	StepRemap
	// StepAlias relabels two logical qubits in the permutation with no
	// data movement (a SWAP gate absorbed by the scheduler).
	StepAlias
)

// Swap is one global-local physical bit exchange within a remap step.
// Positions refer to the physical layout current when the swap is
// applied; swaps within a step apply in order.
type Swap struct {
	Global int // physical bit position >= LocalBits
	Local  int // physical bit position < LocalBits
}

// Step is one planned execution step.
type Step struct {
	Kind  StepKind
	Op    int    // StepGate: index into the circuit's op list
	Swaps []Swap // StepRemap: bit exchanges, applied in order
	A, B  int    // StepAlias: logical qubits relabeled
}

// Plan is a scheduled circuit: the step list plus summary statistics and
// the final logical-to-physical permutation (needed to un-permute the
// gathered state).
type Plan struct {
	Policy    Policy
	NumQubits int
	LocalBits int
	Steps     []Step
	Remaps    int // remap steps emitted
	BitSwaps  int // pairwise bit exchanges across all remaps
	Aliases   int // SWAP gates absorbed as relabelings
	Final     circuit.Permutation
	// Prefix is the length of the plan's classical prefix: the leading
	// steps that map a basis state to a basis state with no arithmetic —
	// unconditioned X- and SWAP-family gates (x cx ccx c3x c4x swap
	// cswap), aliases and remaps. A run that starts from |0...0> walks
	// them on one basis index (PrefixState) instead of executing them.
	Prefix int
}

// Blocks returns the number of maximal gate runs between remaps.
func (p *Plan) Blocks() int {
	if len(p.Steps) == 0 {
		return 0
	}
	return p.Remaps + 1
}

const never = int(^uint(0) >> 1) // next-use sentinel: not demanded again

// Build schedules a circuit for a partitioned state vector with the
// given number of local bits per partition. Under the Naive policy every
// op becomes a StepGate and the permutation stays the identity. Under
// Lazy it returns a plan whose gate steps only ever target physically
// local bits (global controls and diagonal gates excepted — those never
// need data movement), or an error when a gate needs more local target
// positions than the partition has.
func Build(c *circuit.Circuit, localBits int, policy Policy) (*Plan, error) {
	n := c.NumQubits
	if localBits < 0 || localBits > n {
		return nil, fmt.Errorf("sched: local bits %d outside register of %d qubits", localBits, n)
	}
	p := &Plan{
		Policy:    policy,
		NumQubits: n,
		LocalBits: localBits,
		Final:     circuit.IdentityPermutation(n),
	}
	if policy == Naive || localBits == n {
		p.Steps = make([]Step, len(c.Ops))
		for i := range c.Ops {
			p.Steps[i] = Step{Kind: StepGate, Op: i}
		}
		p.Prefix = classicalPrefix(c, p.Steps)
		return p, nil
	}

	b := &builder{
		c:         c,
		localBits: localBits,
		perm:      circuit.IdentityPermutation(n),
		physToLog: make([]int, n),
		demands:   make([][]int, n),
		ptr:       make([]int, n),
		plan:      p,
	}
	for q := 0; q < n; q++ {
		b.physToLog[q] = q
	}
	b.collectDemands()
	for i := range c.Ops {
		if err := b.schedule(i); err != nil {
			return nil, err
		}
	}
	p.Final = b.perm
	p.Prefix = classicalPrefix(c, p.Steps)
	return p, nil
}

// classical reports whether op maps every basis state to a basis state
// with no arithmetic: an unconditioned gate whose base kind is X or SWAP.
// Its kernels only move amplitudes, so on a basis state its effect is a
// bit flip or a bit exchange of the index, gated by its controls.
func classical(op *circuit.Op) bool {
	k := op.G.Kind.BaseKind()
	return op.Cond == nil && op.G.NP == 0 && (k == gate.X || k == gate.SWAP)
}

// classicalPrefix counts the leading steps of a plan that are classical
// gates, aliases or remaps.
func classicalPrefix(c *circuit.Circuit, steps []Step) int {
	for si := range steps {
		if steps[si].Kind == StepGate && !classical(&c.Ops[steps[si].Op]) {
			return si
		}
	}
	return len(steps)
}

// PrefixState walks the plan's classical prefix from |0...0> on a logical
// basis index instead of amplitudes: a gate flips or exchanges the index
// bits of its targets when every control bit is set, an alias relabels
// (the SWAP it absorbed exchanges the logical bits while the permutation
// keeps them where they sit), and a remap only moves the permutation — a
// basis state's data movement is the permutation's. It returns the
// logical basis state and the logical-to-physical permutation the steps
// leave; the amplitude 1 sits at perm.PhysicalIndex(basis).
func (p *Plan) PrefixState(c *circuit.Circuit) (basis int, perm circuit.Permutation) {
	perm = circuit.IdentityPermutation(p.NumQubits)
	for si := range p.Steps[:p.Prefix] {
		st := &p.Steps[si]
		switch st.Kind {
		case StepRemap:
			for _, sw := range st.Swaps {
				perm.SwapPhysical(sw.Global, sw.Local)
			}
		case StepAlias:
			basis = swapBits(basis, st.A, st.B)
			perm.SwapLogical(st.A, st.B)
		case StepGate:
			g := &c.Ops[st.Op].G
			nc := g.Kind.NumControls()
			fire := true
			for _, q := range g.Qubits[:nc] {
				fire = fire && basis>>uint(q)&1 == 1
			}
			switch {
			case !fire:
			case g.Kind.BaseKind() == gate.X:
				basis ^= 1 << uint(g.Qubits[nc])
			default:
				basis = swapBits(basis, int(g.Qubits[nc]), int(g.Qubits[nc+1]))
			}
		}
	}
	return basis, perm
}

// swapBits exchanges bits a and b of x.
func swapBits(x, a, b int) int {
	if x>>uint(a)&1 != x>>uint(b)&1 {
		x ^= 1<<uint(a) | 1<<uint(b)
	}
	return x
}

// builder carries the planner's evolving state.
type builder struct {
	c         *circuit.Circuit
	localBits int
	perm      circuit.Permutation // logical qubit -> physical bit
	physToLog []int               // physical bit -> logical qubit
	demands   [][]int             // per logical qubit: ascending op indices needing locality
	ptr       []int               // per logical qubit: cursor into demands
	plan      *Plan
}

// aliased reports whether op i is a SWAP the lazy scheduler absorbs as a
// pure relabeling (unconditioned two-qubit SWAP; a conditioned SWAP is
// data-dependent and must move amplitudes).
func aliased(op *circuit.Op) bool {
	return op.G.Kind == gate.SWAP && op.Cond == nil
}

// collectDemands records, per logical qubit, the op indices at which it
// must occupy a local physical position: non-diagonal unitary targets
// and RESET operands. Diagonal gates, controls, measurements, and
// absorbed SWAPs work at any position.
func (b *builder) collectDemands() {
	for i := range b.c.Ops {
		op := &b.c.Ops[i]
		for _, t := range demandedQubits(op) {
			b.demands[t] = append(b.demands[t], i)
		}
	}
}

// demandedQubits returns the logical qubits op requires local, if any.
func demandedQubits(op *circuit.Op) []int {
	g := &op.G
	switch g.Kind {
	case gate.RESET:
		return []int{int(g.Qubits[0])}
	case gate.MEASURE, gate.BARRIER, gate.GPHASE:
		return nil
	}
	if aliased(op) {
		return nil
	}
	cls := gate.Classify(g)
	if cls.Diag {
		return nil
	}
	return cls.Targets
}

// nextDemand returns the first op index >= i at which logical qubit q
// needs locality, or never. Calls must have nondecreasing i (the planner
// sweeps forward), which keeps the cursors amortized O(1).
func (b *builder) nextDemand(q, i int) int {
	d := b.demands[q]
	for b.ptr[q] < len(d) && d[b.ptr[q]] < i {
		b.ptr[q]++
	}
	if b.ptr[q] == len(d) {
		return never
	}
	return d[b.ptr[q]]
}

// schedule plans op i, emitting a remap step first when the op demands
// locality its targets do not have.
func (b *builder) schedule(i int) error {
	op := &b.c.Ops[i]
	if aliased(op) {
		a, bq := int(op.G.Qubits[0]), int(op.G.Qubits[1])
		b.perm.SwapLogical(a, bq)
		b.physToLog[b.perm[a]], b.physToLog[b.perm[bq]] = a, bq
		b.plan.Steps = append(b.plan.Steps, Step{Kind: StepAlias, A: a, B: bq})
		b.plan.Aliases++
		return nil
	}
	need := demandedQubits(op)
	if len(need) > 0 {
		if err := b.ensureLocal(i, need); err != nil {
			return err
		}
	}
	b.plan.Steps = append(b.plan.Steps, Step{Kind: StepGate, Op: i})
	return nil
}

// ensureLocal emits one remap step bringing every demanded qubit to a
// local physical position, batching in soon-needed global qubits while
// profitable victims remain.
func (b *builder) ensureLocal(i int, need []int) error {
	m := b.localBits
	exclude := make(map[int]bool, len(need))
	var missing []int
	for _, t := range need {
		if b.perm[t] < m {
			exclude[b.perm[t]] = true
		} else {
			missing = append(missing, t)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	sort.Ints(missing)
	var swaps []Swap
	swapIn := func(t, victim int) {
		swaps = append(swaps, Swap{Global: b.perm[t], Local: victim})
		evicted := b.physToLog[victim]
		g := b.perm[t]
		b.perm[t], b.perm[evicted] = victim, g
		b.physToLog[victim], b.physToLog[g] = t, evicted
		exclude[victim] = true
	}
	for _, t := range missing {
		victim, _ := b.pickVictim(i, exclude)
		if victim < 0 {
			return fmt.Errorf("sched: op %d (%s) needs %d local target bits, partition has %d",
				i, b.c.Ops[i].G.Kind, len(need), m)
		}
		swapIn(t, victim)
	}

	// Prefetch: while a global qubit will be demanded sooner than the
	// best remaining eviction victim, fold its reorder into this
	// exchange instead of paying a separate one later.
	cands := b.globalsByDemand(i)
	for _, cand := range cands {
		victim, victimNext := b.pickVictim(i, exclude)
		if victim < 0 || victimNext <= b.nextDemand(cand.q, i) {
			break
		}
		swapIn(cand.q, victim)
	}

	b.plan.Steps = append(b.plan.Steps, Step{Kind: StepRemap, Swaps: swaps})
	b.plan.Remaps++
	b.plan.BitSwaps += len(swaps)
	return nil
}

// pickVictim returns the local physical position whose logical occupant
// is demanded furthest in the future (Belady's rule), excluding reserved
// positions; -1 when every local position is reserved. The second result
// is the occupant's next demand index.
func (b *builder) pickVictim(i int, exclude map[int]bool) (int, int) {
	best, bestNext := -1, -1
	for pos := 0; pos < b.localBits; pos++ {
		if exclude[pos] {
			continue
		}
		nd := b.nextDemand(b.physToLog[pos], i)
		if nd > bestNext {
			best, bestNext = pos, nd
		}
	}
	return best, bestNext
}

type demandCand struct {
	q    int
	next int
}

// globalsByDemand lists logical qubits at global positions that have a
// future locality demand, soonest first.
func (b *builder) globalsByDemand(i int) []demandCand {
	var out []demandCand
	for pos := b.localBits; pos < b.plan.NumQubits; pos++ {
		q := b.physToLog[pos]
		if nd := b.nextDemand(q, i); nd != never {
			out = append(out, demandCand{q: q, next: nd})
		}
	}
	sort.Slice(out, func(a, c int) bool {
		if out[a].next != out[c].next {
			return out[a].next < out[c].next
		}
		return out[a].q < out[c].q
	})
	return out
}
