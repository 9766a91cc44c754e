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
		// the global index value into a disjoint quarter of global space.
		lo := pe.Rank * perPE
		for g := lo; g < lo+perPE; g++ {
			target := (g + perPE) % (p * perPE) // someone else's element
			pe.GlobalPut(sym, target, float64(target))
		}
		pe.Barrier()
		for g := lo; g < lo+perPE; g++ {
			if got := pe.GlobalGet(sym, g); got != float64(g) {
				t.Errorf("global idx %d: got %g", g, got)
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
// GlobalPut and gathers it back on another through GlobalGet: global
// element g lives on PE g/PerPE at offset g%PerPE.
func TestGatherScatter(t *testing.T) {
	c := NewComm(4)
	sym := c.NewSymF64(4)
	src := make([]float64, 16)
	for i := range src {
		src[i] = float64(i * i)
	}
	got := make([]float64, len(src))
	c.Run(func(pe *PE) {
		if pe.Rank == 0 {
			for i, v := range src {
				pe.GlobalPut(sym, i, v)
			}
		}
		pe.Barrier()
		if pe.Rank == 3 {
			for i := range got {
				got[i] = pe.GlobalGet(sym, i)
			}
		}
	})
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("gather[%d] = %g, want %g", i, got[i], src[i])
		}
	}
	if sym.PartitionUnsafe(2)[1] != float64(9*9) {
		t.Fatal("partition view wrong")
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
