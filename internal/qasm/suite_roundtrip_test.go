package qasm

import (
	"fmt"
	"math"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/qasmbench"
)

// sameCircuit reports the first difference between two circuits'
// registers and ops: every gate field, parameters to the bit, conditions
// and classical bits.
func sameCircuit(want, got *circuit.Circuit) error {
	if got.NumQubits != want.NumQubits || got.NumClbits != want.NumClbits {
		return fmt.Errorf("registers %d/%d became %d/%d", want.NumQubits, want.NumClbits, got.NumQubits, got.NumClbits)
	}
	if len(got.Ops) != len(want.Ops) {
		return fmt.Errorf("%d ops became %d", len(want.Ops), len(got.Ops))
	}
	for i := range want.Ops {
		w, g := want.Ops[i], got.Ops[i]
		wg, gg := w.G, g.G
		for j := range wg.Params {
			if math.Float64bits(wg.Params[j]) != math.Float64bits(gg.Params[j]) {
				return fmt.Errorf("op %d: param %d %v became %v", i, j, wg.Params[j], gg.Params[j])
			}
		}
		wg.Params, gg.Params = [len(wg.Params)]float64{}, [len(gg.Params)]float64{}
		if wg != gg {
			return fmt.Errorf("op %d: %+v became %+v", i, w.G, g.G)
		}
		if (w.Cond == nil) != (g.Cond == nil) || w.Cond != nil && *w.Cond != *g.Cond {
			return fmt.Errorf("op %d: condition %+v became %+v", i, w.Cond, g.Cond)
		}
	}
	return nil
}

// TestSuiteRoundTripsThroughQASM exports every Table 4 workload to
// OpenQASM text and re-parses it: the parsed ops must equal the built
// ones field for field (parameters to the bit), and dumping them again
// must give the same text byte for byte. Large-n entries are limited to
// keep the test fast.
func TestSuiteRoundTripsThroughQASM(t *testing.T) {
	for _, e := range qasmbench.All() {
		if e.Qubits > 16 {
			continue
		}
		for _, compact := range []bool{false, true} {
			c := e.Build()
			label := e.Name
			if compact {
				c = e.Compact()
				label += "-compact"
			}
			src := Dump(c)
			back, err := Parse(src)
			if err != nil {
				t.Fatalf("%s: re-parse failed: %v", label, err)
			}
			if err := sameCircuit(c, back); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if again := Dump(back); again != src {
				t.Fatalf("%s: Dump(Parse(Dump(c))) differs from Dump(c)", label)
			}
		}
	}
}
