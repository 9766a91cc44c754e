package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/gate"
	"svsim/internal/pgas"
)

// remoteGateShapes are the operand shapes of the fine-grained remote
// gate's run walk on n qubits, top = n-1: the run's stride (2^f0, f0 the
// lowest bit no operand holds) and its length (the free bits from f0 up
// to the next operand bit, capped at the batch) take every form the walk
// distinguishes. At P ranks a shape's gate is remote when one of its
// targets lies in the rank bits.
var remoteGateShapes = []struct {
	name string
	n    func(p int) int
	g    func(n int) gate.Gate
}{
	{"u3 top", fixedN(8), func(n int) gate.Gate { return gate.NewU3(0.7, 0.3, -1.1, n-1) }},
	{"cx q0->top", fixedN(8), func(n int) gate.Gate { return gate.NewCX(0, n-1) }},
	{"cx top->q0", fixedN(8), func(n int) gate.Gate { return gate.NewCX(n-1, 0) }},
	{"ccx top,q1->top-1", fixedN(8), func(n int) gate.Gate { return gate.NewCCX(n-1, 1, n-2) }},
	{"swap top,q3", fixedN(8), func(n int) gate.Gate { return gate.NewSWAP(n-1, 3) }},
	{"cswap q2:q0,top", fixedN(8), func(n int) gate.Gate { return gate.NewCSWAP(2, 0, n-1) }},
	// Every operand bit below f0: at n = 3 on two ranks nothing is free,
	// on four the one free bit, top, is a rank bit above the operands
	// and the uncapped run spans both ranks' orbits.
	{"ccx q0,q1,q2", func(p int) int { return 2 + bits.Len(uint(p-1)) }, func(int) gate.Gate { return gate.NewCCX(0, 1, 2) }},
}

func fixedN(n int) func(int) int { return func(int) int { return n } }

// naiveRemoteElems is the per-element traffic model of the naive remote
// gate on n qubits at p ranks: the orbits (index with the operand bits
// removed, controls pinned to 1) are dealt to the ranks in equal
// contiguous chunks, the owner of an orbit fetches and stores each of
// its 2^k elements one by one, and an element is remote when its own top
// bits name another rank. It returns the remote and local elements per
// array; the gate moves each of them twice (re and im) each way.
func naiveRemoteElems(n, p int, g *gate.Gate) (remote, local int64) {
	var tmask int
	for _, q := range g.Targets() {
		tmask |= 1 << uint(q)
	}
	cmask := int(g.ControlMask())
	lb := n - bits.Len(uint(p-1)) // the partition's index bits
	if tmask>>uint(lb) == 0 {
		return 0, 0 // no target in the rank bits: a local gate
	}
	fixed := tmask | cmask
	total := 1 << uint(n-bits.OnesCount(uint(fixed)))
	chunk := (total + p - 1) / p
	for idx := 0; idx < 1<<uint(n); idx++ {
		if idx&cmask != cmask {
			continue
		}
		orbit := 0
		for b, o := 0, 0; b < n; b++ {
			if fixed>>uint(b)&1 == 0 {
				orbit |= (idx >> uint(b) & 1) << uint(o)
				o++
			}
		}
		if orbit/chunk != idx>>uint(lb) {
			remote++
		} else {
			local++
		}
	}
	return remote, local
}

// TestRemoteGateShapes runs each shape after a dense preparation on the
// naive one-sided cells: the state must equal single's bit for bit, and
// the gate's own traffic (the run minus the preparation alone) must be
// the per-element model's, one message and 8 bytes per element.
func TestRemoteGateShapes(t *testing.T) {
	cells := []struct {
		backend string
		pes     int
	}{{"scale-out", 2}, {"scale-out", 4}, {"scale-up", 4}}
	for _, cell := range cells {
		for _, sh := range remoteGateShapes {
			n := sh.n(cell.pes)
			g := sh.g(n)
			t.Run(fmt.Sprintf("%s-x%d/%s", cell.backend, cell.pes, sh.name), func(t *testing.T) {
				prepared := func(gs ...gate.Gate) *circuit.Circuit {
					c := circuit.New("shape", n)
					rng := rand.New(rand.NewSource(int64(n)))
					for q := 0; q < n; q++ {
						c.U3(rng.Float64()*3, rng.Float64()*3, rng.Float64()*3, q)
					}
					c.Append(gs...)
					return c
				}
				full, prep := prepared(g), prepared()
				run := func(backend string, c *circuit.Circuit) *Result {
					b, err := NewBackend(backend, Config{PEs: cell.pes})
					if err != nil {
						t.Fatal(err)
					}
					res, err := b.Run(c)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				got, base := run(cell.backend, full), run(cell.backend, prep)
				if d := got.State.MaxAbsDiff(run("single", full).State); d != 0 {
					t.Fatalf("deviates from single by %g", d)
				}
				remote, local := naiveRemoteElems(n, cell.pes, &g)
				want := pgas.Stats{
					RemoteGets: 2 * remote, RemotePuts: 2 * remote, RemoteBytes: 32 * remote,
					LocalGets: 2 * local, LocalPuts: 2 * local, LocalBytes: 32 * local,
				}
				d := got.Comm
				d.RemoteGets -= base.Comm.RemoteGets
				d.RemotePuts -= base.Comm.RemotePuts
				d.RemoteBytes -= base.Comm.RemoteBytes
				d.LocalGets -= base.Comm.LocalGets
				d.LocalPuts -= base.Comm.LocalPuts
				d.LocalBytes -= base.Comm.LocalBytes
				d.Barriers, d.Collectives, d.Retries = 0, 0, 0
				if d != want {
					t.Fatalf("gate traffic %v, want the per-element model's %v", d, want)
				}
			})
		}
	}
}

// BenchmarkRemoteGate times the naive one-sided remote gate on
// scale-out ×2 at n = 20: eight of one gate on the top qubit after an h
// that ends the classical prefix, in the run shapes the walk tells
// apart — contiguous runs (u3 top: stride 1), stride-2 runs (cx
// q0→top) and a ccx (stride 4).
func BenchmarkRemoteGate(b *testing.B) {
	const n = 20
	for _, row := range []struct {
		name string
		g    gate.Gate
	}{
		{"contiguous", gate.NewU3(0.7, 0.3, -1.1, n-1)},
		{"stride2", gate.NewCX(0, n-1)},
		{"ccx", gate.NewCCX(0, 1, n-1)},
	} {
		c := circuit.New(row.name, n).H(0)
		for i := 0; i < 8; i++ {
			c.Append(row.g)
		}
		b.Run(row.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NewScaleOut(Config{PEs: 2}).Run(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
