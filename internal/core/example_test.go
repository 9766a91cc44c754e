package core_test

import (
	"fmt"

	"svsim/internal/circuit"
	"svsim/internal/core"
)

// ExampleNewSingleDevice builds a Bell pair with the fluent API and runs it
// on the single-device backend.
func ExampleNewSingleDevice() {
	c := circuit.New("bell", 2)
	c.H(0).CX(0, 1)
	res, err := core.NewSingleDevice(core.Config{}).Run(c)
	if err != nil {
		panic(err)
	}
	fmt.Printf("P(00)=%.2f P(11)=%.2f\n", res.State.Probability(0), res.State.Probability(3))
	// Output: P(00)=0.50 P(11)=0.50
}

// ExampleNewScaleOut runs the same circuit distributed over four SHMEM PEs
// and reports the one-sided communication it measured.
func ExampleNewScaleOut() {
	c := circuit.New("ghz", 8)
	c.H(0)
	for q := 1; q < 8; q++ {
		c.CX(q-1, q)
	}
	res, err := core.NewScaleOut(core.Config{PEs: 4, Coalesced: true}).Run(c)
	if err != nil {
		panic(err)
	}
	fmt.Printf("PEs=%d remote-messages=%d P(all-ones)=%.2f\n",
		res.PEs, res.Comm.RemoteMessages(), res.State.Probability(255))
	// Output: PEs=4 remote-messages=16 P(all-ones)=0.50
}

// ExampleRunShots samples a measured circuit.
func ExampleRunShots() {
	c := circuit.New("coin", 1)
	c.X(0).MeasureAll()
	counts, err := core.RunShots(core.NewSingleDevice(core.Config{}), c, 100, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println(counts[1])
	// Output: 100
}
