package sched

import "fmt"

// Exchange is the geometry of one remap step, realized as a pairwise,
// in-place exchange. A remap's swaps are disjoint transpositions of a
// local bit Local[i] with the rank bit Rank[i] (the planner uses every
// global position and every victim once per step), so the amplitudes
// rank s holds with bit Local[i] equal to bit Rank[i] of rank d, for
// every i, are exactly the ones that move to d — and they land on d at
// the local indices whose bit Local[i] equals bit Rank[i] of s: the
// region d sends to s. Each pair of ranks in a group of 2^k (k swaps)
// therefore trades one region of S/2^k amplitudes both ways, indexed
// alike on both sides by the Free bits, and the region a rank trades
// with itself never moves.
//
// The exchange runs in steps: XOR rounds over the group (round r pairs
// rank s with s ^ Spread(r, Rank)), each moving its region in chunks of
// at most ChunkAmps amplitudes. Every rank runs the same steps.
type Exchange struct {
	Local []int // swapped local bit positions, in swap order
	Rank  []int // Rank[i]: the rank bit Local[i] trades with (global position - local bits)
	Free  []int // the other local bits, ascending: the index inside a region
}

// ChunkAmps is the most amplitudes one exchange step moves per rank: the
// size of the fixed pack buffers and landing slots, so a remap's scratch
// does not grow with the partition. Measured on RQC(20,16) over two PEs,
// 2^14, 2^16 and 2^18 run alike on the clock and only the scratch
// differs (2, 8 and 32 MiB over the fleet; EXPERIMENTS.md), so it is
// the smallest.
const ChunkAmps = 1 << chunkLog

const chunkLog = 14

// NewExchange builds the pairwise geometry of one remap step's swap list
// over n physical bits, localBits of them local. It rejects a list whose
// swaps are not disjoint transpositions of a local and a global bit.
func NewExchange(swaps []Swap, n, localBits int) (*Exchange, error) {
	used := make([]bool, n)
	e := &Exchange{}
	for _, sw := range swaps {
		if sw.Local < 0 || sw.Local >= localBits || sw.Global < localBits || sw.Global >= n {
			return nil, fmt.Errorf("sched: remap swap b%d<->b%d is not a local/global pair over %d local of %d bits",
				sw.Global, sw.Local, localBits, n)
		}
		if used[sw.Local] || used[sw.Global] {
			return nil, fmt.Errorf("sched: remap swap b%d<->b%d reuses a bit of the step", sw.Global, sw.Local)
		}
		used[sw.Local], used[sw.Global] = true, true
		e.Local = append(e.Local, sw.Local)
		e.Rank = append(e.Rank, sw.Global-localBits)
	}
	for b := 0; b < localBits; b++ {
		if !used[b] {
			e.Free = append(e.Free, b)
		}
	}
	return e, nil
}

// region returns the pinned local bits of the region a rank trades with
// peer: bit Local[i] set to bit Rank[i] of peer.
func (e *Exchange) region(peer int) int {
	v := 0
	for i, l := range e.Local {
		v |= peer >> uint(e.Rank[i]) & 1 << uint(l)
	}
	return v
}

// chunkBits is log2 of the amplitudes one step moves.
func (e *Exchange) chunkBits() int { return min(len(e.Free), chunkLog) }

// ChunkLen is the number of amplitudes one step moves per rank.
func (e *Exchange) ChunkLen() int { return 1 << uint(e.chunkBits()) }

// Steps is the number of exchange steps: 2^k - 1 rounds of one region,
// 2^len(Free) amplitudes, in chunks of ChunkLen.
func (e *Exchange) Steps() int {
	return (1<<uint(len(e.Local)) - 1) << uint(len(e.Free)-e.chunkBits())
}

// Step returns step j of rank's exchange: the peer it trades with, and
// the chunk of their shared region as the base and bit positions of
// statevec.GatherBits / ScatterBits. The peer's Step j names rank and the
// same chunk of its own region, enumerated in the same order.
func (e *Exchange) Step(rank, j int) (peer, base int, pos []int) {
	cb := e.chunkBits()
	chunks := len(e.Free) - cb
	peer = rank ^ Spread(j>>uint(chunks)+1, e.Rank)
	return peer, e.region(peer) | Spread(j&(1<<uint(chunks)-1), e.Free[cb:]), e.Free[:cb]
}

// MovedAmps is the number of amplitudes each rank sends (and receives):
// every region but the one a rank trades with itself.
func (e *Exchange) MovedAmps() int64 {
	return int64(1<<uint(len(e.Local))-1) << uint(len(e.Free))
}

// Spread deposits the low bits of t into the given bit positions:
// bit j of t lands at position bits[j].
func Spread(t int, bits []int) int {
	v := 0
	for j, b := range bits {
		if (t>>uint(j))&1 == 1 {
			v |= 1 << uint(b)
		}
	}
	return v
}
