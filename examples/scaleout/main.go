// Scale-out: the same 18-qubit circuit on the single-device backend, the
// PGAS/SHMEM backend at several PE counts (element-wise and coalesced
// one-sided access), and the MPI pack-exchange baseline — demonstrating
// identical results with very different communication structures, the
// contrast at the heart of the paper.
package main

import (
	"fmt"

	"svsim/internal/core"
	"svsim/internal/qasmbench"
)

func main() {
	c := qasmbench.BigAdder(18, 13, 200).StripNonUnitary()
	fmt.Printf("workload: %s (computes 13+200 in superposition-free arithmetic)\n\n", c.Summary())

	ref, err := core.NewSingleDevice(core.Config{}).Run(c)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%-22s %12s  %10s  %12s  %s\n", "backend", "elapsed", "remote-msgs", "remote-bytes", "max |diff| vs single")

	for _, pes := range []int{2, 4, 8, 16} {
		res, err := core.NewScaleOut(core.Config{PEs: pes}).Run(c)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-22s %12v  %10d  %12d  %.2e\n",
			fmt.Sprintf("scale-out %d PE", pes), res.Elapsed,
			res.Comm.RemoteMessages(), res.Comm.RemoteBytes,
			res.State.MaxAbsDiff(ref.State))
	}
	for _, pes := range []int{4, 16} {
		res, err := core.NewScaleOut(core.Config{PEs: pes, Coalesced: true}).Run(c)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-22s %12v  %10d  %12d  %.2e\n",
			fmt.Sprintf("coalesced %d PE", pes), res.Elapsed,
			res.Comm.RemoteMessages(), res.Comm.RemoteBytes,
			res.State.MaxAbsDiff(ref.State))
	}
	for _, ranks := range []int{4, 16} {
		res, err := core.NewMPI(core.Config{PEs: ranks}).Run(c)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-22s %12v  %10d  %12d  %.2e\n",
			fmt.Sprintf("mpi-baseline %d", ranks), res.Elapsed,
			res.MPI.Messages, res.MPI.MsgBytes,
			res.State.MaxAbsDiff(ref.State))
	}

	// Decode the arithmetic result from the final state.
	breg, cout := qasmbench.BigAdderLayout(18)
	sum := 0
	for bi, q := range breg {
		if ref.State.ProbOne(q) > 0.5 {
			sum |= 1 << uint(bi)
		}
	}
	carry := 0
	if ref.State.ProbOne(cout) > 0.5 {
		carry = 1
	}
	fmt.Printf("\nadder output: %d (carry %d) — expected %d\n", sum, carry, 13+200)
}
