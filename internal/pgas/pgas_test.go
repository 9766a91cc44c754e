package pgas

import (
	"math"
	"sync/atomic"
	"testing"
)

func TestBarrierOrdering(t *testing.T) {
	// Every PE increments a phase-local counter; after the barrier all
	// increments from the previous phase must be visible.
	const p = 8
	const phases = 200
	c := NewComm(p)
	var counter int64
	c.Run(func(pe *PE) {
		for ph := 0; ph < phases; ph++ {
			atomic.AddInt64(&counter, 1)
			pe.Barrier()
			if got := atomic.LoadInt64(&counter); got != int64((ph+1)*p) {
				t.Errorf("PE %d phase %d: counter = %d, want %d", pe.Rank, ph, got, (ph+1)*p)
				return
			}
			pe.Barrier()
		}
	})
}

func TestPutGetRoundTrip(t *testing.T) {
	const p = 4
	const perPE = 16
	c := NewComm(p)
	sym := c.NewSymF64(perPE)
	c.Run(func(pe *PE) {
		// Each PE writes its rank-stamped values into the NEXT PE's
		// partition, then everyone reads its own partition back.
		next := (pe.Rank + 1) % p
		for i := 0; i < perPE; i++ {
			pe.Put(sym, next, i, float64(pe.Rank*100+i))
		}
		pe.Barrier()
		prev := (pe.Rank + p - 1) % p
		for i := 0; i < perPE; i++ {
			if got := pe.Get(sym, pe.Rank, i); got != float64(prev*100+i) {
				t.Errorf("PE %d idx %d: got %g", pe.Rank, i, got)
				return
			}
		}
	})
}

func TestGlobalAddressing(t *testing.T) {
	const p = 4
	const perPE = 8
	c := NewComm(p)
	sym := c.NewSymF64(perPE)
	c.Run(func(pe *PE) {
		// PE r owns global indices [r*perPE, (r+1)*perPE); every PE writes
		// the global index value into the next PE's quarter of global space.
		lo := pe.Rank * perPE
		target := (lo + perPE) % (p * perPE) // someone else's elements
		vals := make([]float64, perPE)
		for k := range vals {
			vals[k] = float64(target + k)
		}
		pe.PutRun(sym, target, 1, vals)
		pe.Barrier()
		got := make([]float64, perPE)
		pe.GetRun(sym, lo, 1, got)
		for k, v := range got {
			if v != float64(lo+k) {
				t.Errorf("global idx %d: got %g", lo+k, v)
				return
			}
		}
	})
}

func TestVectorOps(t *testing.T) {
	const p = 2
	c := NewComm(p)
	sym := c.NewSymF64(8)
	c.Run(func(pe *PE) {
		if pe.Rank == 0 {
			src := []float64{1, 2, 3, 4}
			pe.PutV(sym, 1, 2, src)
		}
		pe.Barrier()
		if pe.Rank == 1 {
			dst := make([]float64, 4)
			pe.GetV(sym, 1, 2, dst)
			for i, v := range dst {
				if v != float64(i+1) {
					t.Errorf("vector get: %v", dst)
					return
				}
			}
		}
	})
	st := c.TotalStats()
	// PutV to a remote peer is ONE message of 32 bytes; GetV is local.
	if st.RemotePuts != 1 || st.RemoteBytes != 32 {
		t.Fatalf("vector accounting: %+v", st)
	}
	if st.LocalGets != 1 || st.LocalBytes != 32 {
		t.Fatalf("local vector accounting: %+v", st)
	}
}

func TestStatsClassification(t *testing.T) {
	c := NewComm(3)
	sym := c.NewSymF64(4)
	c.Run(func(pe *PE) {
		pe.Put(sym, pe.Rank, 0, 1)       // local put
		pe.Put(sym, (pe.Rank+1)%3, 1, 2) // remote put
		pe.Barrier()
		_ = pe.Get(sym, pe.Rank, 0)       // local get
		_ = pe.Get(sym, (pe.Rank+2)%3, 1) // remote get
	})
	st := c.TotalStats()
	if st.LocalPuts != 3 || st.RemotePuts != 3 || st.LocalGets != 3 || st.RemoteGets != 3 {
		t.Fatalf("classification: %+v", st)
	}
	if st.RemoteBytes != 6*8 || st.LocalBytes != 6*8 {
		t.Fatalf("byte accounting: %+v", st)
	}
	if st.Barriers != 3 {
		t.Fatalf("barrier count: %+v", st)
	}
	per := c.StatsOf(0)
	if per.LocalPuts != 1 || per.RemotePuts != 1 {
		t.Fatalf("per-PE stats: %+v", per)
	}
}

func TestAllReduceSum(t *testing.T) {
	const p = 8
	c := NewComm(p)
	c.Run(func(pe *PE) {
		// 0+1+...+7 = 28, repeated many times to exercise double buffering.
		for iter := 0; iter < 100; iter++ {
			got := pe.AllReduceSum(float64(pe.Rank) + float64(iter))
			want := 28.0 + float64(iter*p)
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("PE %d iter %d: sum = %g, want %g", pe.Rank, iter, got, want)
				return
			}
		}
	})
	// The sum is a balanced tree over the ranks: 1 followed by three
	// half-ulps loses each of them in rank order, while the tree pairs
	// two of them into a whole ulp first.
	NewComm(4).Run(func(pe *PE) {
		v := math.Ldexp(1, -53)
		if pe.Rank == 0 {
			v = 1
		}
		if got, want := pe.AllReduceSum(v), 1+math.Ldexp(1, -52); got != want {
			t.Errorf("PE %d: sum = %v, want the tree sum %v", pe.Rank, got, want)
		}
	})
}

// TestGatherScatter scatters a natural-order array from one PE through
// one PutRun and gathers it back on another through GetRuns of stride 1
// and 2, all crossing partitions: global element g lives on PE g/PerPE
// at offset g%PerPE.
func TestGatherScatter(t *testing.T) {
	c := NewComm(4)
	sym := c.NewSymF64(4)
	src := make([]float64, 16)
	for i := range src {
		src[i] = float64(i * i)
	}
	got := make([]float64, len(src))
	even, odd := make([]float64, len(src)/2), make([]float64, len(src)/2)
	c.Run(func(pe *PE) {
		if pe.Rank == 0 {
			pe.PutRun(sym, 0, 1, src)
		}
		pe.Barrier()
		if pe.Rank == 3 {
			pe.GetRun(sym, 0, 1, got)
			pe.GetRun(sym, 0, 2, even)
			pe.GetRun(sym, 1, 2, odd)
		}
	})
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("gather[%d] = %g, want %g", i, got[i], src[i])
		}
		if h := []float64{even[i/2], odd[i/2]}[i%2]; h != src[i] {
			t.Fatalf("strided gather of %d = %g, want %g", i, h, src[i])
		}
	}
	if sym.PartitionUnsafe(2)[1] != float64(9*9) {
		t.Fatal("partition view wrong")
	}
}

// TestRunOpsMatchElementOps: a GetRun/PutRun is its len(dst) element
// Gets/Puts. Every PE issues the same runs — stride 1 and 2^k, inside
// one partition and across partition boundaries — on one communicator
// and the element-by-element twin on another; the arrays and each PE's
// Stats must come out equal.
func TestRunOpsMatchElementOps(t *testing.T) {
	const p, perPE = 4, 16
	runs := []struct{ gidx, stride, n int }{
		{0, 1, 16},  // one whole partition
		{3, 1, 5},   // inside one partition
		{13, 1, 22}, // crosses two boundaries
		{1, 2, 8},   // stride 2 inside one partition
		{6, 2, 20},  // stride 2 across three
		{5, 4, 14},  // stride 4 across four
		{2, 16, 4},  // one element per partition
		{0, 32, 2},  // every other partition
		{63, 1, 1},  // the last element
	}
	for _, rn := range runs {
		bulk, elem := NewComm(p), NewComm(p)
		bs, es := bulk.NewSymF64(perPE), elem.NewSymF64(perPE)
		for r := 0; r < p; r++ {
			for i := range bs.PartitionUnsafe(r) {
				bs.PartitionUnsafe(r)[i] = float64(r*perPE + i)
				es.PartitionUnsafe(r)[i] = float64(r*perPE + i)
			}
		}
		var got, want [p][]float64
		bulk.Run(func(pe *PE) {
			dst := make([]float64, rn.n)
			pe.GetRun(bs, rn.gidx, rn.stride, dst)
			got[pe.Rank] = dst
			pe.Barrier()
			if pe.Rank == 1 {
				neg := make([]float64, len(dst))
				for k, v := range dst {
					neg[k] = -v
				}
				pe.PutRun(bs, rn.gidx, rn.stride, neg)
			}
		})
		elem.Run(func(pe *PE) {
			dst := make([]float64, rn.n)
			for k := range dst {
				g := rn.gidx + k*rn.stride
				dst[k] = pe.Get(es, g/perPE, g%perPE)
			}
			want[pe.Rank] = dst
			pe.Barrier()
			if pe.Rank == 1 {
				for k, v := range dst {
					g := rn.gidx + k*rn.stride
					pe.Put(es, g/perPE, g%perPE, -v)
				}
			}
		})
		for r := 0; r < p; r++ {
			for k := range want[r] {
				if got[r][k] != want[r][k] || want[r][k] != float64(rn.gidx+k*rn.stride) {
					t.Fatalf("run %+v: PE %d element %d = %g, want %g", rn, r, k, got[r][k], want[r][k])
				}
			}
			for i, v := range es.PartitionUnsafe(r) {
				if bs.PartitionUnsafe(r)[i] != v {
					t.Fatalf("run %+v: partition %d[%d] = %g after PutRun, want %g", rn, r, i, bs.PartitionUnsafe(r)[i], v)
				}
			}
			if b, e := bulk.StatsOf(r), elem.StatsOf(r); b != e {
				t.Fatalf("run %+v: PE %d stats\n run ops:     %+v\n element ops: %+v", rn, r, b, e)
			}
		}
	}
}

func TestSinglePEComm(t *testing.T) {
	// Degenerate communicator must work (the paper's single-device case).
	c := NewComm(1)
	sym := c.NewSymF64(4)
	c.Run(func(pe *PE) {
		pe.Put(sym, 0, 0, 7)
		pe.Barrier()
		if pe.Get(sym, 0, 0) != 7 {
			t.Error("single PE get")
		}
		if pe.AllReduceSum(3) != 3 {
			t.Error("single PE allreduce")
		}
		if pe.NPEs() != 1 {
			t.Error("NPEs")
		}
	})
	if c.TotalStats().RemoteMessages() != 0 {
		t.Fatal("single PE produced remote traffic")
	}
}

func TestNewCommRejectsZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewComm(0) should panic")
		}
	}()
	NewComm(0)
}

func TestLocalSliceAliasPartition(t *testing.T) {
	c := NewComm(2)
	sym := c.NewSymF64(3)
	c.Run(func(pe *PE) {
		loc := sym.Local(pe)
		loc[0] = float64(pe.Rank + 1)
		pe.Barrier()
		other := 1 - pe.Rank
		if got := pe.Get(sym, other, 0); got != float64(other+1) {
			t.Errorf("PE %d: local write not visible remotely: %g", pe.Rank, got)
		}
	})
}
