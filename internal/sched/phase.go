package sched

// A remap step is realized as an ordered list of exchange phases. Each
// phase is one coalesced all-to-all (an Exchange) over the swaps it
// owns, synchronized over the barrier domain its Scope names. The flat
// remap is the one-phase list whose domain is the whole fleet. Under a
// node topology the step's swap list — a product of disjoint (global,
// local) bit transpositions — factors exactly into an intra-node phase
// (swaps whose global bit selects a PE within a node) followed by an
// inter-node phase (swaps whose global bit selects the node). Disjoint
// transpositions commute, so the phases compose to the flat permutation
// and the amplitudes land bit-identically — only the realization
// changes: the node phase moves data between same-node PEs only, the
// rail phase moves the minimal residue across nodes with each PE
// sending fewer, larger blocks. This is the preference rule applied to
// the rank-compatibility matrix: every (src, dst) pair the node phase
// can serve stays intra-node, and the rail phase's matrix pins all
// within-node rank bits, so its pairs differ only in node bits.

// Scope names the set of PEs one exchange phase couples, which is the
// barrier domain it synchronizes over.
type Scope uint8

const (
	// ScopeFleet couples every PE: the flat all-to-all.
	ScopeFleet Scope = iota
	// ScopeNode couples the PEs of one node: every compatible
	// (src, dst) pair of the phase shares a node.
	ScopeNode
	// ScopeRail couples the ranks holding the same within-node position
	// across all nodes: compatible pairs differ only in node bits.
	ScopeRail
)

// Phase is one exchange phase of a remap step.
type Phase struct {
	Scope Scope
	// Swaps are the step's swaps this phase realizes; the phases' swap
	// lists concatenate to a reordering of the step's.
	Swaps []Swap
	// Exchange is the all-to-all geometry realizing Swaps.
	*Exchange
}

// SplitExchange returns the phase list realizing one remap step's swap
// list under the given topology: the node phase then the rail phase
// (either may be absent, never both), or the single fleet phase when
// the topology is disabled or the swaps are not disjoint transpositions
// (the scheduler only emits disjoint ones; this is a safety net, since
// the factorization argument needs commutativity).
func SplitExchange(swaps []Swap, n, localBits, p int, topo Topology) []Phase {
	phase := func(scope Scope, swaps []Swap) Phase {
		return Phase{Scope: scope, Swaps: swaps, Exchange: NewExchange(swaps, n, localBits, p)}
	}
	if !topo.Enabled() || !disjointSwaps(swaps) {
		return []Phase{phase(ScopeFleet, swaps)}
	}
	var intra, inter []Swap
	for _, sw := range swaps {
		if topo.InterBit(sw.Global, localBits) {
			inter = append(inter, sw)
		} else {
			intra = append(intra, sw)
		}
	}
	var phases []Phase
	if len(intra) > 0 {
		phases = append(phases, phase(ScopeNode, intra))
	}
	if len(inter) > 0 {
		phases = append(phases, phase(ScopeRail, inter))
	}
	return phases
}

// disjointSwaps reports whether every global and every local position
// appears at most once across the swap list (the list is a product of
// disjoint transpositions, so the swaps commute and partition cleanly).
func disjointSwaps(swaps []Swap) bool {
	seenG := make(map[int]bool, len(swaps))
	seenL := make(map[int]bool, len(swaps))
	for _, sw := range swaps {
		if seenG[sw.Global] || seenL[sw.Local] {
			return false
		}
		seenG[sw.Global] = true
		seenL[sw.Local] = true
	}
	return true
}

// NodeSplit classifies the exchange's one-sided traffic by node
// locality under a topology: bytes and messages between distinct
// same-node ranks versus distinct cross-node ranks. Self blocks (the
// src == dst diagonal) are local memory copies and count in neither.
func (e *Exchange) NodeSplit(p int, topo Topology) (intraBytes, interBytes, interMsgs int64) {
	blockBytes := int64(e.BlockLen) * 16
	for s := 0; s < p; s++ {
		for d := 0; d < p; d++ {
			if s == d || !e.Compat[s][d] {
				continue
			}
			if topo.SameNode(s, d) {
				intraBytes += blockBytes
			} else {
				interBytes += blockBytes
				interMsgs++
			}
		}
	}
	return intraBytes, interBytes, interMsgs
}
