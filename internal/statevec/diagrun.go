package statevec

import (
	"math/bits"

	"svsim/internal/gate"
)

// A diagonal run is a stretch of consecutive diagonal gates executed as
// one pass (compile.DiagRuns marks them; the paper's §3.2.1 argument that
// a diagonal gate should cost only the amplitudes it changes, applied to
// the stretch instead of the gate). The stretch is a product of terms
// "multiply by a phase where all bits of a logical-qubit mask are 1"
// (gate.DiagTerm). The qubits every term requires are pinned in the
// window enumerator, so amplitudes no term touches are never loaded; the
// other terms are split over at most two tables indexed by a key made of
// the table's LOGICAL qubits, and amplitude x is multiplied by
// T0[key0(x)] · T1[key1(x)].
//
// Why logical: the table contents are products taken in gate order over
// logical masks, and the key of an amplitude is read off its logical
// index, so the two factors an amplitude meets — and the order they are
// multiplied in — do not depend on where the amplitude is stored. The
// physical layout (the rank's permutation, the rank bits in State.Base,
// a tile's base) only decides which array slot that amplitude is, which
// enters through the position→key arrays Prepare builds. Hence a run
// rounds identically on every backend, window shape and layout.
//
// Listing 2: on an AVX2 CPU a Vectorized window hands the bulk of every
// block to an assembly twin (run_amd64.s) that computes the lookup loop's
// arithmetic four amplitudes a step, to the bit, so the twin changes the
// speed of a run and nothing else.

// diagLoBits is how many low physical index bits resolve their key bits
// through a lookup array; higher bits are gathered once per block of
// 2^diagLoBits indices.
const diagLoBits = 8

// DiagTables is a diagonal run prepared for one rank's layout: the two
// logical tables and the physical-position→key arrays. The zero value
// is ready for Prepare; a value is reused run after run and grows its
// buffers to the largest run it has held, so steady-state execution does
// not allocate. After Prepare it is read-only and may be applied from
// several goroutines at once.
type DiagTables struct {
	gates  int
	pinned int             // physical bits set in every visited index
	tab    [2][][2]float64 // tab[t][key] = (re, im); tab[1] is empty for a one-table run
	b      uint            // low physical bits resolved through lo
	lo     [2][]uint16     // key bits contributed by the low b bits of a physical index
	loOr   [2]int          // OR of lo[t]: with high bits k, no key of a block exceeds k|loOr[t]
	hi     [2][]keyBit     // table qubits at physical positions >= b
	visit  []uint16        // the low-b-bit values with every low pinned bit set, ascending
	span   int             // visit is aligned stretches of span consecutive values (2^b: no pinned bit below b)
}

// keyBit says that physical index bit pos is bit of a table key.
type keyBit struct{ pos, bit uint8 }

// Prepare loads a run of the given number of gates: pinned is the set of
// logical qubits every term requires, qubits[t] the logical qubits that
// index table t in ascending order (qubits[1] == 0: one table), terms
// the run's normal form in gate order with table[k] the table of term
// k, and perm[q] the physical index bit holding logical qubit q.
func (d *DiagTables) Prepare(gates int, pinned uint64, qubits [2]uint64, terms []gate.DiagTerm, table []uint8, perm []int) {
	d.gates = gates
	d.pinned = 0
	for m := pinned; m != 0; m &= m - 1 {
		d.pinned |= 1 << uint(perm[bits.TrailingZeros64(m)])
	}
	d.b = uint(min(diagLoBits, len(perm)))
	d.visit = d.visit[:0]
	inBlock := d.pinned & (1<<d.b - 1)
	for x := 0; x < 1<<d.b; x++ {
		if x&inBlock == inBlock {
			d.visit = append(d.visit, uint16(x))
		}
	}
	d.span = 1 << d.b
	if inBlock != 0 {
		d.span = inBlock & -inBlock
	}
	for t, qs := range qubits {
		if t == 1 && qs == 0 {
			d.tab[1] = d.tab[1][:0]
			break
		}
		size := 1 << uint(bits.OnesCount64(qs))
		if cap(d.tab[t]) < size {
			d.tab[t] = make([][2]float64, size)
		}
		tab := d.tab[t][:size]
		d.tab[t] = tab
		for k := range tab {
			tab[k] = [2]float64{1, 0}
		}
		for k, term := range terms {
			if int(table[k]) != t {
				continue
			}
			// Multiply the term into every key that has its bits set.
			must := compressBits(term.Mask&^pinned, qs)
			free := (size - 1) &^ must
			for s := free; ; s = (s - 1) & free {
				e := &tab[s|must]
				e[0], e[1] = e[0]*term.Re-e[1]*term.Im, e[0]*term.Im+e[1]*term.Re
				if s == 0 {
					break
				}
			}
		}

		if cap(d.lo[t]) < 1<<d.b {
			d.lo[t] = make([]uint16, 1<<d.b)
		}
		lo := d.lo[t][:1<<d.b]
		d.lo[t], d.hi[t] = lo, d.hi[t][:0]
		var low [diagLoBits]uint16
		bit := uint8(0)
		for m := qs; m != 0; m &= m - 1 {
			if pos := perm[bits.TrailingZeros64(m)]; pos < int(d.b) {
				low[pos] = 1 << bit
			} else {
				d.hi[t] = append(d.hi[t], keyBit{uint8(pos), bit})
			}
			bit++
		}
		lo[0] = 0
		d.loOr[t] = 0
		for p := uint(0); p < d.b; p++ {
			for i := 0; i < 1<<p; i++ {
				lo[1<<p|i] = lo[i] | low[p]
			}
			d.loOr[t] |= int(low[p])
		}
	}
}

// compressBits gathers the bits of mask at the set positions of sel into
// the low bits of the result, lowest position first.
func compressBits(mask, sel uint64) int {
	out := 0
	for j := uint(0); sel != 0; sel, j = sel&(sel-1), j+1 {
		out |= int(mask>>uint(bits.TrailingZeros64(sel))&1) << j
	}
	return out
}

// hiKeys gathers the key bits held above the lookup arrays from global
// physical index g.
func (d *DiagTables) hiKeys(g int) (k0, k1 int) {
	for _, h := range d.hi[0] {
		k0 |= g >> h.pos & 1 << h.bit
	}
	for _, h := range d.hi[1] {
		k1 |= g >> h.pos & 1 << h.bit
	}
	return k0, k1
}

// diagRun multiplies every window amplitude whose pinned bits are set by
// its table product. Keys are read off the global physical index, so a
// tile, a partition and a pool share see the keys the whole state would.
// The enumerator supplies the window's share of the compressed space; the
// walk through it is by blocks of 2^b physical indices — the key bits
// above b are gathered once per block, the ones below come from the
// lookup arrays — in both loop styles, with the same Go loops. Only a
// Vectorized window on an AVX2 CPU (decided here, once per call) also
// hands each block's four-amplitude steps to the twins in run_amd64.s, so
// Scalar stays Listing 3.
func (w window) diagRun(d *DiagTables) (amps, flops int64) {
	it := w.iter(d.pinned, 0)
	m := int64(it.left)
	bm := 1<<d.b - 1
	simd := haveAVX2 && w.style == Vectorized
	// The share may start inside a block: at the visited offset whose
	// rank its free low bits spell. Every later block starts at rank 0.
	r := compressBits(uint64(w.base+(it.cur|it.val)), uint64(bm&^d.pinned))
	for it.left > 0 {
		g := w.base + (it.cur | it.val)
		visit := d.visit[r:min(len(d.visit), r+it.left)]
		k0, k1 := d.hiKeys(g)
		d.block(it.re, it.im, g&^bm-w.base, visit, k0, k1, simd)
		it.left -= len(visit)
		it.cur = ((it.cur | it.fixed | bm) + 1) &^ it.fixed
		r = 0
	}
	if len(d.tab[1]) == 0 {
		return m, 6 * m
	}
	return m, 12 * m
}

// block multiplies the amplitudes at off+v for every low-bit value v in
// visit (off may be negative when the window starts inside a block; off+v
// is not). k0 and k1 are the block's high key bits. It is the run's hot
// loop, a function of its own so that its few live values stay in
// registers. With simd, when the visited values come in stretches of at
// least four (no pinned bit inside the block, or the lowest one q2 or
// higher), every fourth value from the first multiple of 4 on starts four
// consecutive amplitudes: one twin call takes those steps, and the 0-3
// values before and after them are looked up here. Otherwise, with no
// pinned bit inside the block the values are consecutive and the loop
// walks slices; else they are looked up one by one.
func (d *DiagTables) block(re, im []float64, off int, visit []uint16, k0, k1 int, simd bool) {
	if simd && d.span >= 4 {
		h := min(-int(visit[0])&3, len(visit)) // values below the first multiple of 4
		if n := (len(visit) - h) &^ 3; n > 0 {
			d.lookup(re, im, off, visit[:h], k0, k1)
			d.steps(re, im, off, visit[h:h+n], k0, k1)
			d.lookup(re, im, off, visit[h+n:], k0, k1)
			return
		}
	}
	t0, lo0 := d.tab[0], d.lo[0]
	t1, lo1 := d.tab[1], d.lo[1]
	if d.span == len(lo0) {
		v := int(visit[0])
		re, im = re[off+v:off+v+len(visit)], im[off+v:off+v+len(visit)]
		lo0 = lo0[v : v+len(visit)]
		if len(t1) == 0 {
			for j := range re {
				a := &t0[k0|int(lo0[j])]
				re[j], im[j] = mulAmp(re[j], im[j], a[0], a[1])
			}
			return
		}
		lo1 = lo1[v : v+len(visit)]
		for j := range re {
			a, b := &t0[k0|int(lo0[j])], &t1[k1|int(lo1[j])]
			fr, fi := mulAmp(a[0], a[1], b[0], b[1])
			re[j], im[j] = mulAmp(re[j], im[j], fr, fi)
		}
		return
	}
	d.lookup(re, im, off, visit, k0, k1)
}

// lookup multiplies the amplitudes at off+v for the values v in visit one
// by one.
func (d *DiagTables) lookup(re, im []float64, off int, visit []uint16, k0, k1 int) {
	t0, lo0 := d.tab[0], d.lo[0]
	t1, lo1 := d.tab[1], d.lo[1]
	if len(t1) == 0 {
		for _, v := range visit {
			p, a := off+int(v), &t0[k0|int(lo0[v])]
			re[p], im[p] = mulAmp(re[p], im[p], a[0], a[1])
		}
		return
	}
	for _, v := range visit {
		p, a, b := off+int(v), &t0[k0|int(lo0[v])], &t1[k1|int(lo1[v])]
		fr, fi := mulAmp(a[0], a[1], b[0], b[1])
		re[p], im[p] = mulAmp(re[p], im[p], fr, fi)
	}
}

// steps hands visit, a positive multiple of 4 values of which every
// fourth starts four consecutive amplitudes, to a twin after making the
// bounds checks the assembly does not: the amplitudes and keys it reads
// lie between those of visit's first and last value, and every table key
// of the block is a bit-subset of k|loOr.
func (d *DiagTables) steps(re, im []float64, off int, visit []uint16, k0, k1 int) {
	first, last := int(visit[0]), int(visit[len(visit)-1])
	_, _, _ = re[off+first], re[off+last], im[off+last]
	t0, lo0 := d.tab[0], d.lo[0]
	_, _ = t0[k0|d.loOr[0]], lo0[last]
	t1, lo1 := d.tab[1], d.lo[1]
	if len(t1) == 0 {
		diagBlock1AVX2(&re[0], &im[0], off, &visit[0], len(visit), &lo0[0], &t0[0], k0)
		return
	}
	_, _ = t1[k1|d.loOr[1]], lo1[last]
	diagBlock2AVX2(&re[0], &im[0], off, &visit[0], len(visit), &lo0[0], &lo1[0], &t0[0], &t1[0], k0, k1)
}

// mulAmp multiplies the complex number (r, i) by (fr, fi): the run's one
// arithmetic, applied to the two table entries and then to the amplitude.
func mulAmp(r, i, fr, fi float64) (float64, float64) {
	return fr*r - fi*i, fi*r + fr*i
}

// addRun charges one executed run: its gates, the amplitudes its pass
// visited, and that one pass as the memory sweep.
func (s *Stats) addRun(d *DiagTables, amps, flops int64) {
	s.AddTileWork(int64(d.gates), amps, flops)
	s.AddSweep(amps)
}

// ApplyRun executes a prepared diagonal run on the whole state (or this
// partition of it, see State.Base) as one pass.
func (s *State) ApplyRun(d *DiagTables) {
	amps, flops := s.window(0, s.Dim).diagRun(d)
	s.Stats.addRun(d, amps, flops)
}

// ApplyRunTile executes a prepared diagonal run on the aligned tile
// [lo, hi) and returns the amplitudes and flops visited; like ApplyTile,
// the stats are the caller's.
func (s *State) ApplyRunTile(d *DiagTables, lo, hi int) (amps, flops int64) {
	return s.window(lo, hi).diagRun(d)
}

// ApplyRunShared executes a prepared diagonal run with the pass's
// compressed iteration space cut into one share per worker, like
// ApplyShared does for a gate: bit-identical to ApplyRun at any worker
// count.
func (p *Pool) ApplyRunShared(s *State, d *DiagTables) {
	amps, flops := p.ForTiles(p.workers, func(part int) (int64, int64) {
		w := s.window(0, s.Dim)
		w.part, w.parts = part, p.workers
		return w.diagRun(d)
	})
	s.Stats.addRun(d, amps, flops)
}
