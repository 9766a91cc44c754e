package pgas

import "svsim/internal/fault"

// Symmetric heap objects. A SymF64 is the analogue of
// nvshmem_malloc(len*8) called collectively: every PE owns a same-sized
// partition and can address any peer's partition through one-sided get/put
// (the paper's nvshmem_double_g / nvshmem_double_p in Listing 5).

// SymF64 is a symmetric float64 array: P partitions of PerPE elements.
type SymF64 struct {
	comm  *Comm
	PerPE int
	parts [][]float64
}

// NewSymF64 collectively allocates a symmetric array with perPE elements
// on every PE. (Host-side collective allocation, like nvshmem_malloc being
// called before kernel launch.)
func (c *Comm) NewSymF64(perPE int) *SymF64 {
	s := &SymF64{comm: c, PerPE: perPE, parts: make([][]float64, c.P)}
	for i := range s.parts {
		s.parts[i] = make([]float64, perPE)
	}
	return s
}

// Local returns the PE's own partition for direct (lcmem) access. Accesses
// through the returned slice are not counted as communication; use it for
// the pure-local fast path when a gate's target qubit lies inside the
// partition.
func (s *SymF64) Local(pe *PE) []float64 { return s.parts[pe.Rank] }

// PartitionUnsafe exposes a peer's partition without accounting; it exists
// for verification code that snapshots the global state after Run returns.
func (s *SymF64) PartitionUnsafe(rank int) []float64 { return s.parts[rank] }

// Get performs a one-sided load of element idx from peer's partition
// (shmem_double_g). It returns when the value is available locally and
// needs no cooperation from the peer.
func (pe *PE) Get(s *SymF64, peer, idx int) float64 {
	st := &pe.comm.pes[pe.Rank].stats
	if peer == pe.Rank {
		st.LocalGets++
		st.LocalBytes += 8
	} else {
		st.RemoteGets++
		st.RemoteBytes += 8
	}
	val := s.parts[peer][idx]
	if pe.comm.inj != nil {
		if v := pe.injectOneSided(fault.Get, 1); v.Corrupt {
			val = flipBit(val, v.CorruptBit)
		}
	}
	return val
}

// Put performs a one-sided store of v into element idx of peer's partition
// (shmem_double_p). It returns as soon as the local value is handed off.
func (pe *PE) Put(s *SymF64, peer, idx int, v float64) {
	st := &pe.comm.pes[pe.Rank].stats
	if peer == pe.Rank {
		st.LocalPuts++
		st.LocalBytes += 8
	} else {
		st.RemotePuts++
		st.RemoteBytes += 8
	}
	if pe.comm.inj != nil {
		// Corruption lands on the transferred value, never the caller's
		// copy.
		if vd := pe.injectOneSided(fault.Put, 1); vd.Corrupt {
			v = flipBit(v, vd.CorruptBit)
		}
	}
	s.parts[peer][idx] = v
}

// GetV performs one coalesced one-sided load of dst-many contiguous
// elements starting at idx from peer's partition. It counts as a single
// message, modeling warp-coalesced NVSHMEM transfers ("enhanced
// communication efficiency can be achieved if the remote access are
// coalesced per warp").
func (pe *PE) GetV(s *SymF64, peer, idx int, dst []float64) {
	st := &pe.comm.pes[pe.Rank].stats
	n := int64(len(dst))
	if peer == pe.Rank {
		st.LocalGets++
		st.LocalBytes += 8 * n
	} else {
		st.RemoteGets++
		st.RemoteBytes += 8 * n
	}
	copy(dst, s.parts[peer][idx:idx+len(dst)])
	if pe.comm.inj != nil {
		corrupt(pe.injectOneSided(fault.Get, len(dst)), dst)
	}
}

// PutV performs one coalesced one-sided store of src into peer's partition
// starting at idx, counting as a single message.
func (pe *PE) PutV(s *SymF64, peer, idx int, src []float64) {
	st := &pe.comm.pes[pe.Rank].stats
	n := int64(len(src))
	if peer == pe.Rank {
		st.LocalPuts++
		st.LocalBytes += 8 * n
	} else {
		st.RemotePuts++
		st.RemoteBytes += 8 * n
	}
	copy(s.parts[peer][idx:idx+len(src)], src)
	if pe.comm.inj != nil {
		// Corrupt the landed bytes, not the caller's source buffer.
		corrupt(pe.injectOneSided(fault.Put, len(src)), s.parts[peer][idx:idx+len(src)])
	}
}

// GetRun performs len(dst) one-sided element loads (shmem_double_g):
// dst[k] is global element gidx + k*stride (stride ≥ 1) of a symmetric
// array laid out in natural array order (partition = gidx / PerPE, the
// paper's "pos1_gid = pos / sv_num_per_gpu"). It is counted exactly as
// len(dst) Gets — one message and 8 bytes per element, local or remote
// by the element's partition — and with an injector attached each
// element is a Get of its own, so a fault plan sees the same ops. Only
// the emulator's bookkeeping is batched: each piece that lies in one
// partition is resolved once and copied.
func (pe *PE) GetRun(s *SymF64, gidx, stride int, dst []float64) {
	if pe.comm.inj != nil {
		for k := range dst {
			g := gidx + k*stride
			dst[k] = pe.Get(s, g/s.PerPE, g%s.PerPE)
		}
		return
	}
	st := &pe.comm.pes[pe.Rank].stats
	for len(dst) > 0 {
		peer, idx, m := s.piece(gidx, stride, len(dst))
		if peer == pe.Rank {
			st.LocalGets += int64(m)
			st.LocalBytes += 8 * int64(m)
		} else {
			st.RemoteGets += int64(m)
			st.RemoteBytes += 8 * int64(m)
		}
		part := s.parts[peer][idx:]
		if stride == 1 {
			copy(dst[:m], part)
		} else {
			for k := range dst[:m] {
				dst[k] = part[k*stride]
			}
		}
		dst, gidx = dst[m:], gidx+m*stride
	}
}

// PutRun performs len(src) one-sided element stores (shmem_double_p) of
// src[k] into global element gidx + k*stride, counted and fault-injected
// exactly as len(src) Puts, like GetRun.
func (pe *PE) PutRun(s *SymF64, gidx, stride int, src []float64) {
	if pe.comm.inj != nil {
		for k, v := range src {
			g := gidx + k*stride
			pe.Put(s, g/s.PerPE, g%s.PerPE, v)
		}
		return
	}
	st := &pe.comm.pes[pe.Rank].stats
	for len(src) > 0 {
		peer, idx, m := s.piece(gidx, stride, len(src))
		if peer == pe.Rank {
			st.LocalPuts += int64(m)
			st.LocalBytes += 8 * int64(m)
		} else {
			st.RemotePuts += int64(m)
			st.RemoteBytes += 8 * int64(m)
		}
		part := s.parts[peer][idx:]
		if stride == 1 {
			copy(part, src[:m])
		} else {
			for k, v := range src[:m] {
				part[k*stride] = v
			}
		}
		src, gidx = src[m:], gidx+m*stride
	}
}

// piece locates global element gidx (partition and offset) and counts how
// many of the n elements gidx, gidx+stride, … lie in that partition.
func (s *SymF64) piece(gidx, stride, n int) (peer, idx, m int) {
	peer, idx = gidx/s.PerPE, gidx%s.PerPE
	return peer, idx, min(n, (s.PerPE-idx+stride-1)/stride)
}
