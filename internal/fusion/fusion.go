// Package fusion implements gate fusion, the key optimization of the
// qsim simulator the paper discusses in related work ("The major
// optimization performed is gate fusion") and a natural extension of
// SV-Sim's specialized-kernel design: runs of single-qubit gates on the
// same qubit collapse into one u3 application, identity products vanish,
// and adjacent self-inverse two-qubit gates cancel. The pass is exact —
// it preserves the global phase by accumulating it into a single trailing
// gphase — so optimized circuits produce bitwise-comparable states.
package fusion

import (
	"math"
	"math/cmplx"
	"sort"

	"svsim/internal/circuit"
	"svsim/internal/gate"
)

// Stats reports what one Optimize call did.
type Stats struct {
	InputGates    int
	OutputGates   int
	FusedRuns     int // 1q runs collapsed into a single gate
	Identities    int // fused runs that vanished entirely
	Cancellations int // adjacent self-inverse pairs removed
	Gadgets       int // Pauli gadgets marked (gadget.go)
	GadgetGates   int // gates kept verbatim inside them
}

// Span records which source ops an output op was produced from, as a
// closed range [First, Last] of indices into the input circuit.
// Synthesized ops with no single source (the trailing accumulated
// gphase) carry {-1, -1}.
type Span struct {
	First, Last int
}

// Synthetic reports a span with no source range (the trailing gphase).
func (s Span) Synthetic() bool { return s.First < 0 }

// Crosses reports whether the span straddles a block boundary b, i.e.
// the output op merges source ops from both sides of b (a boundary at b
// means "a remap happens immediately before source op b").
func (s Span) Crosses(b int) bool { return !s.Synthetic() && s.First < b && b <= s.Last }

// Optimize returns a semantically identical circuit with single-qubit
// runs fused and trivial pairs cancelled, plus the transformation stats.
func Optimize(c *circuit.Circuit) (*circuit.Circuit, Stats) {
	out, _, st, _ := OptimizeBlocks(c, nil)
	return out, st
}

// OptimizeBlocks is Optimize constrained to scheduler blocks: boundaries
// lists source-op indices (ascending) at which a remap occurs, and no
// output op may merge or cancel gates across such an index — the fused
// stream must preserve the locality structure the planner derived. Each
// output op carries a Span naming its source range. With nil boundaries
// this is exactly Optimize. The Recipe re-binds other parameter values
// into the output (see Recipe.Rebind).
func OptimizeBlocks(c *circuit.Circuit, boundaries []int) (*circuit.Circuit, []Span, Stats, *Recipe) {
	st := Stats{InputGates: c.NumGates()}
	out, spans, rec := fuse1Q(c, boundaries, &st)
	var renum []int32
	out.Ops, spans, renum = cancelPairs(out.Ops, spans, boundaries, rec.Gadgets, &st)
	if renum != nil {
		// Cancelled pairs are parameter-free, so every site's op survives;
		// so does every member of a gadget, and nothing between two of them
		// was there to cancel.
		for i := range rec.Sites {
			if s := &rec.Sites[i]; s.Out >= 0 {
				s.Out = renum[s.Out]
			}
		}
		if rec.GPhase >= 0 {
			rec.GPhase = renum[rec.GPhase]
		}
		for i := range rec.Gadgets {
			g := &rec.Gadgets[i]
			g.First, g.Last, g.Core = int(renum[g.First]), int(renum[g.Last]), int(renum[g.Core])
		}
	}
	st.OutputGates = out.NumGates()
	rec.Verbatim = len(out.Ops) == len(c.Ops)
	for i := 0; rec.Verbatim && i < len(spans); i++ {
		rec.Verbatim = spans[i] == Span{i, i}
	}
	return out, spans, st, rec
}

// Recipe is what the pass knows about its output beyond the ops, recorded
// while it fuses. Gadgets are the marked Pauli-gadget windows, by output
// index: a property of the skeleton. The rest is how the output depends
// on parameter values (the pass is the only place that sees the runs that
// vanished): enough to write another binding of the same circuit skeleton
// into a copy of the output without fusing again.
//
// A site is a flushed run holding at least one gate of a kind with
// parameters; sites are listed in flush order, which is also the order
// the pass adds up the global phase. Terms holds every contribution to
// that sum in order — a site's slot is recomputed on Rebind, the slots
// between belong to parameter-free runs and are replayed as recorded —
// so the trailing gphase is re-summed exactly as a fresh pass would.
type Recipe struct {
	Gadgets []Gadget
	// Verbatim reports that the output is the input op for op: nothing
	// fused, cancelled, absorbed or emitted out of order (a circuit that
	// is Pauli gadgets and lone gates, a UCCSD ansatz). Every binding of
	// the skeleton is then its own output and needs no Rebind.
	Verbatim bool

	Sites   []Site
	Members []int32   // source op indices of every site's run, back to back
	Terms   []float64 // global-phase contributions in accumulation order
	GPhase  int32     // output index of the trailing gphase, -1 when there is none
}

// Site is one parameter-dependent run and what became of it.
type Site struct {
	Lo, Hi int32 // the run is source ops Members[Lo:Hi], in circuit order
	// Out is the output op the run became, -1 when it left none (a run
	// that multiplied out to the identity, or a gphase absorbed into the
	// trailing one). With Kind it is the run's outcome tag: a binding
	// whose run lands on another tag has a differently shaped output.
	Out  int32
	Kind gate.Kind // kind of the output op (Out >= 0): the source's own for a run of one, else u3 or u1
	Term int32     // the run's slot in Recipe.Terms, -1 when it adds no phase (a run of one)
}

// Rebind writes the binding src — a circuit with the skeleton of the one
// the recipe was recorded from — into ops, a private copy of the recorded
// output: per site it re-reads the angles, multiplies the run out and
// decomposes it with the very code the pass uses, and stores the gate at
// the site's output index. It reports false, with ops partly written,
// when some run's outcome tag (or the presence of the trailing gphase)
// differs from the recorded one: the output would have another shape and
// the caller must run the pass. When it reports true, ops is bit for bit
// what OptimizeBlocks(src, boundaries) returns.
func (r *Recipe) Rebind(src *circuit.Circuit, ops []circuit.Op) bool {
	var phase float64
	t := int32(0)
	for i := range r.Sites {
		s := &r.Sites[i]
		var alpha float64
		if first := &src.Ops[r.Members[s.Lo]].G; s.Hi-s.Lo == 1 {
			if s.Out >= 0 {
				ops[s.Out].G = *first
			} else {
				alpha = first.Params[0] // an unconditioned gphase
			}
		} else {
			var p pending
			for _, m := range r.Members[s.Lo:s.Hi] {
				p.mul(&src.Ops[m].G, int(m))
			}
			a, g, isID := decomposeU3(p.u, int(first.Qubits[0]))
			if isID != (s.Out < 0) || (!isID && g.Kind != s.Kind) {
				return false
			}
			if !isID {
				ops[s.Out].G = g
			}
			alpha = a
		}
		if s.Term >= 0 {
			for ; t < s.Term; t++ {
				phase += r.Terms[t]
			}
			phase += alpha
			t++
		}
	}
	for ; int(t) < len(r.Terms); t++ {
		phase += r.Terms[t]
	}
	if residual(phase) != (r.GPhase >= 0) {
		return false
	}
	if r.GPhase >= 0 {
		ops[r.GPhase].G = gate.NewGPhase(phase)
	}
	return true
}

// residual reports whether an accumulated global phase is worth a gate.
func residual(phase float64) bool {
	return math.Abs(math.Mod(phase, 2*math.Pi)) > 1e-12
}

// pending is an accumulated 1-qubit unitary awaiting flush.
type pending struct {
	count      int       // source gates accumulated; zero means idle
	first      gate.Gate // the original gate, emitted verbatim for runs of one
	firstIdx   int       // source index of the first accumulated gate
	lastIdx    int       // source index of the last accumulated gate
	u          [4]complex128
	parametric bool    // some accumulated gate takes parameters
	members    []int32 // source indices accumulated (buffer kept across resets)
}

func (p *pending) reset() {
	*p = pending{members: p.members[:0]}
}

// mul accumulates source op idx. The product is only formed from the
// second gate on: a run of one is emitted verbatim and needs no matrix.
func (p *pending) mul(g *gate.Gate, idx int) {
	p.lastIdx = idx
	p.count++
	if p.count == 1 {
		p.first, p.firstIdx = *g, idx
		return
	}
	if p.count == 2 {
		gate.TargetUnitaryInto(&p.first, p.u[:])
	}
	var u [4]complex128
	gate.TargetUnitaryInto(g, u[:])
	a := p.u
	p.u[0] = u[0]*a[0] + u[1]*a[2]
	p.u[1] = u[0]*a[1] + u[1]*a[3]
	p.u[2] = u[2]*a[0] + u[3]*a[2]
	p.u[3] = u[2]*a[1] + u[3]*a[3]
}

// fuse1Q performs the run-fusion pass.
func fuse1Q(c *circuit.Circuit, boundaries []int, st *Stats) (*circuit.Circuit, []Span, *Recipe) {
	out := &circuit.Circuit{Name: c.Name, NumQubits: c.NumQubits, NumClbits: c.NumClbits}
	out.Ops = make([]circuit.Op, 0, len(c.Ops))
	spans := make([]Span, 0, len(c.Ops))
	pend := make([]pending, c.NumQubits)
	rec := &Recipe{GPhase: -1}
	var phase float64

	// site records a parameter-dependent run of source ops.
	site := func(members []int32, s Site) {
		s.Lo = int32(len(rec.Members))
		rec.Members = append(rec.Members, members...)
		s.Hi = int32(len(rec.Members))
		rec.Sites = append(rec.Sites, s)
	}
	// term records one contribution to the global phase.
	term := func(alpha float64) int32 {
		phase += alpha
		rec.Terms = append(rec.Terms, alpha)
		return int32(len(rec.Terms) - 1)
	}
	emit := func(op circuit.Op, sp Span) int32 {
		out.Ops = append(out.Ops, op)
		spans = append(spans, sp)
		return int32(len(out.Ops) - 1)
	}

	flush := func(q int) {
		p := &pend[q]
		if p.count == 0 {
			return
		}
		s := Site{Out: -1, Term: -1}
		if p.count == 1 {
			// A run of one keeps its original (specialized) gate.
			s.Kind = p.first.Kind
			s.Out = emit(circuit.Op{G: p.first}, Span{p.firstIdx, p.lastIdx})
		} else {
			alpha, g, isID := decomposeU3(p.u, q)
			s.Term = term(alpha)
			if isID {
				st.Identities++
			} else {
				st.FusedRuns++
				s.Kind = g.Kind
				s.Out = emit(circuit.Op{G: g}, Span{p.firstIdx, p.lastIdx})
			}
		}
		if p.parametric {
			site(p.members, s)
		}
		p.reset()
	}
	flushAll := func() {
		for q := range pend {
			flush(q)
		}
	}

	windows := markGadgets(c, boundaries)
	nextBoundary := 0
	for i := 0; i < len(c.Ops); i++ {
		// A block boundary before op i: a remap happens here, so no
		// accumulated run may extend past it. Flush everything.
		for nextBoundary < len(boundaries) && boundaries[nextBoundary] <= i {
			if boundaries[nextBoundary] == i {
				flushAll()
			}
			nextBoundary++
		}
		if len(windows) > 0 && windows[0].First == i {
			// A Pauli gadget: flush what its qubits hold, then emit every
			// member as written. Only the rz takes a parameter.
			w := windows[0]
			windows = windows[1:]
			for j := w.First; j <= w.Last; j++ {
				for _, q := range c.Ops[j].G.OperandQubits() {
					flush(int(q))
				}
			}
			shift := len(out.Ops) - w.First
			for j := w.First; j <= w.Last; j++ {
				emit(c.Ops[j], Span{j, j})
			}
			site([]int32{int32(w.Core)}, Site{Out: int32(w.Core + shift), Kind: gate.RZ, Term: -1})
			st.Gadgets++
			st.GadgetGates += w.Gates()
			w.First, w.Last, w.Core = w.First+shift, w.Last+shift, w.Core+shift
			rec.Gadgets = append(rec.Gadgets, w)
			i = w.Last - shift
			continue
		}
		op := &c.Ops[i]
		g := &op.G
		// Conditioned ops and non-unitary ops act as barriers for their
		// operands (and conditions depend on measurement order, so keep
		// them in place).
		fusable := op.Cond == nil && g.Kind.Unitary() &&
			g.Kind != gate.BARRIER && g.Kind != gate.GPHASE && g.NQ == 1
		if fusable {
			p := &pend[g.Qubits[0]]
			p.mul(g, i)
			p.members = append(p.members, int32(i))
			p.parametric = p.parametric || g.NP > 0
			continue
		}
		if g.Kind == gate.GPHASE && op.Cond == nil {
			site([]int32{int32(i)}, Site{Out: -1, Term: term(g.Params[0])})
			continue
		}
		// Flush every operand the op touches; a conditioned or
		// non-unitary op flushes everything (measurement probabilities
		// must see all prior gates applied).
		if op.Cond != nil || !g.Kind.Unitary() {
			flushAll()
		} else {
			for _, q := range g.OperandQubits() {
				flush(int(q))
			}
		}
		at := emit(*op, Span{i, i})
		if g.NP > 0 {
			site([]int32{int32(i)}, Site{Out: at, Kind: g.Kind, Term: -1})
		}
	}
	flushAll()
	if residual(phase) {
		rec.GPhase = emit(circuit.Op{G: gate.NewGPhase(phase)}, Span{-1, -1})
	}
	return out, spans, rec
}

// decomposeU3 factors a 2x2 unitary as e^{i alpha} * u3(theta, phi,
// lambda) on qubit q, reporting pure (phase-only) identities.
func decomposeU3(u [4]complex128, q int) (alpha float64, g gate.Gate, isID bool) {
	const eps = 1e-12
	c := cmplx.Abs(u[0])
	s := cmplx.Abs(u[2])
	theta := 2 * math.Atan2(s, c)
	switch {
	case s < eps:
		// Diagonal: u = e^{i alpha} diag(1, e^{i lambda}).
		alpha = cmplx.Phase(u[0])
		lambda := cmplx.Phase(u[3]) - alpha
		if math.Abs(math.Mod(lambda, 2*math.Pi)) < 1e-12 {
			return alpha, gate.Gate{}, true
		}
		return alpha, gate.NewU1(lambda, q), false
	case c < eps:
		// Anti-diagonal: u3(pi, phi, lambda) exactly.
		phi := cmplx.Phase(u[2])
		lambda := cmplx.Phase(-u[1])
		return 0, gate.NewU3(math.Pi, phi, lambda, q), false
	default:
		alpha = cmplx.Phase(u[0])
		phi := cmplx.Phase(u[2]) - alpha
		lambda := cmplx.Phase(-u[1]) - alpha
		return alpha, gate.NewU3(theta, phi, lambda, q), false
	}
}

// cancelPairs removes adjacent identical self-inverse multi-qubit gates
// (CX;CX, CZ;CZ, SWAP;SWAP, CCX;CCX, ...) from ops, compacting ops and
// spans in place. "Adjacent" means no intervening op touches any operand
// of the pair. With boundaries set, a pair may only cancel when both ops
// live in the same sched block — cancellation across a remap would
// change which gates each block demands and invalidate the plan. renum
// maps every input index to its output index (-1 for a cancelled op);
// it is nil when nothing cancelled. The members of gadgets are pinned:
// they neither cancel nor are commuted past where they share an operand.
//
// The pass runs rounds to a fixed point (a cancelled inner pair exposes
// the pair around it). In a round every live cancellable op, in order,
// looks for its blocker — the next live op it cannot commute past — and
// cancels against it when the two match. An op whose blocker did not
// match can only fare differently once that blocker is gone, so stop[i]
// remembers the blocker and a later round skips i while it stands, and
// otherwise resumes the search just past it: every round after the first
// costs one pass over the flags plus the rescans cancellations caused.
func cancelPairs(ops []circuit.Op, spans []Span, boundaries []int, gadgets []Gadget, st *Stats) (_ []circuit.Op, _ []Span, renum []int32) {
	n, before := len(ops), st.Cancellations
	pinned := make([]bool, n)
	for _, g := range gadgets {
		for i := g.First; i <= g.Last; i++ {
			pinned[i] = true
		}
	}
	// blockOf maps a source span to its sched block: the number of
	// boundaries at or before its first source op.
	blockOf := func(s Span) int {
		return sort.SearchInts(boundaries, s.First+1)
	}
	dead := make([]bool, n)
	// stop[i] is where op i's last search ended: i itself before the
	// first, the unmatched blocker after one, n once it ran off the end.
	stop := make([]int32, n)
	for i := range stop {
		stop[i] = int32(i)
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			if dead[i] || pinned[i] || !cancellable(&ops[i]) {
				continue
			}
			s := int(stop[i])
			if s == n || (s != i && !dead[s]) {
				continue
			}
			stop[i] = int32(n)
			for j := s + 1; j < n; j++ {
				if dead[j] {
					continue
				}
				if !sharesOperand(&ops[i].G, &ops[j].G) && ops[j].Cond == nil &&
					ops[j].G.Kind.Unitary() {
					continue // independent; keep scanning
				}
				if sameSelfInverse(&ops[i], &ops[j]) && !pinned[j] &&
					blockOf(spans[i]) == blockOf(spans[j]) {
					dead[i], dead[j] = true, true
					st.Cancellations++
					changed = true
				} else {
					stop[i] = int32(j)
				}
				break
			}
		}
	}
	if st.Cancellations == before {
		return ops, spans, nil
	}
	renum = stop // every search is over; reuse the slice
	k := 0
	for i := 0; i < n; i++ {
		if dead[i] {
			renum[i] = -1
			continue
		}
		ops[k], spans[k] = ops[i], spans[i]
		renum[i] = int32(k)
		k++
	}
	return ops[:k], spans[:k], renum
}

func cancellable(op *circuit.Op) bool {
	return op.Cond == nil && op.G.Kind.Hermitian() && op.G.NQ >= 2
}

func sameSelfInverse(a, b *circuit.Op) bool {
	if !cancellable(a) || !cancellable(b) {
		return false
	}
	if a.G.Kind != b.G.Kind || a.G.NQ != b.G.NQ {
		return false
	}
	for i := 0; i < int(a.G.NQ); i++ {
		if a.G.Qubits[i] != b.G.Qubits[i] {
			return false
		}
	}
	return true
}

func sharesOperand(a, b *gate.Gate) bool {
	for _, qa := range a.OperandQubits() {
		for _, qb := range b.OperandQubits() {
			if qa == qb {
				return true
			}
		}
	}
	return false
}
