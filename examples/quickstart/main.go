// Quickstart: build a circuit with the fluent builder API, run it on the
// single-device backend, and sample measurement outcomes — the smallest
// end-to-end use of the library.
package main

import (
	"fmt"

	"svsim/internal/circuit"
	"svsim/internal/core"
)

func main() {
	// A 3-qubit GHZ state with a phase flourish.
	c := circuit.New("quickstart", 3)
	c.H(0).CX(0, 1).CX(1, 2)
	c.T(2)
	c.CU1(0.25, 0, 2)

	backend := core.NewSingleDevice(core.Config{Seed: 7})
	res, err := backend.Run(c)
	if err != nil {
		panic(err)
	}

	fmt.Printf("ran %s in %v\n", c.Summary(), res.Elapsed)
	fmt.Printf("kernel work: %d gates, %d amplitudes touched\n",
		res.SV.Gates, res.SV.AmpsTouched)

	fmt.Println("\nfinal amplitudes:")
	for i := 0; i < res.State.Dim; i++ {
		if p := res.State.Probability(i); p > 1e-9 {
			fmt.Printf("  |%03b>  p=%.4f\n", i, p)
		}
	}

	counts, err := core.RunShots(backend, c, 1000, 7)
	if err != nil {
		panic(err)
	}
	fmt.Println("\n1000 shots:")
	for idx, n := range counts {
		fmt.Printf("  |%03b>  %d\n", idx, n)
	}

	// The same circuit, text-exported and measured per qubit.
	c.MeasureAll()
	res, err = backend.Run(c)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nmeasured classical register: %03b\n", res.Cbits)
}
