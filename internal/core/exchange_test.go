package core

import (
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
)

// exchangeScratch returns the bytes rank holds to pack and stage remap
// chunks: its two pack buffers and the transport's landing storage.
func exchangeScratch(rt *runtime, rank int) int64 {
	n := len(rt.ranks[rank].xpack[0]) + len(rt.ranks[rank].xpack[1])
	switch t := rt.t.(type) {
	case *oneSided:
		n += len(t.slots.PartitionUnsafe(rank))
	case *twoSided:
		n += len(t.in[rank])
	}
	return int64(n) * 8
}

// TestExchangeScratchIsBounded: the memory a remap needs beyond the
// state does not grow with the state. Both transports run a lazy plan at
// n = 14 and n = 20 over 4 ranks (regions of up to 2^17 amplitudes, so
// the larger run moves several chunks per round) and every rank holds
// the same pack and stage bytes at both sizes, with the result equal to
// the single-device run's.
func TestExchangeScratchIsBounded(t *testing.T) {
	const pes = 4
	for _, tc := range []struct {
		backend string
		nt      newTransport
	}{{"scale-out", oneSidedTransport}, {"mpi", twoSidedTransport}} {
		var sizes []int64
		for _, n := range []int{14, 20} {
			c := circuit.New("product", n)
			for q := 0; q < n; q++ {
				c.RY(0.1+0.07*float64(q), q)
			}
			for q := n - 1; q >= 0; q-- {
				c.RX(0.2+0.05*float64(q), q)
			}
			cfg := Config{PEs: pes, Sched: sched.Lazy}
			cp, _, err := compileCircuit(cfg, c, pes)
			if err != nil {
				t.Fatal(err)
			}
			chunked := false
			for _, ex := range cp.Exchanges {
				chunked = chunked || ex != nil && ex.ChunkLen() < 1<<len(ex.Free)
			}
			if chunked != (n == 20) {
				t.Fatalf("n=%d: some remap moves its region in several chunks = %v", n, chunked)
			}
			rt, err := newRuntime(tc.backend, cfg, cp, tc.nt, "", nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := rt.run()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewSingleDevice(Config{}).Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if d := res.State.MaxAbsDiff(ref.State); d != 0 {
				t.Fatalf("%s n=%d: lazy run deviates from single by %g", tc.backend, n, d)
			}
			b := exchangeScratch(rt, 0)
			for r := range rt.ranks {
				if got := exchangeScratch(rt, r); got != b {
					t.Fatalf("%s n=%d: rank %d holds %d exchange bytes, rank 0 %d", tc.backend, n, r, got, b)
				}
			}
			sizes = append(sizes, b)
		}
		if sizes[0] == 0 || sizes[0] != sizes[1] {
			t.Fatalf("%s: exchange scratch %d bytes per rank at n=14, %d at n=20; want equal and nonzero",
				tc.backend, sizes[0], sizes[1])
		}
	}
}

// TestMPILazyMovesEachAmplitudeOnce: the two-sided transport runs the
// same exchange as the PGAS one, so on qft_n15 at 8 ranks its message
// bytes equal scale-out's remote bytes — each amplitude a remap moves
// crosses once, not once per bit swap.
func TestMPILazyMovesEachAmplitudeOnce(t *testing.T) {
	e, err := qasmbench.ByName("qft_n15")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()
	pgas, err := NewScaleOut(Config{PEs: 8, Sched: sched.Lazy}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	mpi, err := runMPI(t, Config{PEs: 8, Sched: sched.Lazy}, c)
	if err != nil {
		t.Fatal(err)
	}
	if mpi.MPI.MsgBytes != pgas.Comm.RemoteBytes || mpi.MPI.MsgBytes != 458752 {
		t.Fatalf("qft_n15 x8 lazy: mpi message bytes %d, scale-out remote bytes %d; want both 458752",
			mpi.MPI.MsgBytes, pgas.Comm.RemoteBytes)
	}
	if mpi.MPI.Messages != pgas.Comm.RemoteMessages() {
		t.Fatalf("qft_n15 x8 lazy: %d messages, %d puts; want one per chunk on both", mpi.MPI.Messages, pgas.Comm.RemoteMessages())
	}
	if d := mpi.State.MaxAbsDiff(pgas.State); d != 0 {
		t.Fatalf("mpi and scale-out lazy deviate by %g", d)
	}
}
