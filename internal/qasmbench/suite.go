// Package qasmbench reimplements the QASMBench-style workload suite the
// paper evaluates (Table 4): the eight medium circuits used for the
// single-device and scale-up figures and the eight large circuits used for
// the scale-out figures, plus the variational workloads of §5 (QNN, DNN,
// VQE-UCCSD). Every generator builds a functionally meaningful circuit
// (the algorithms actually compute what their names claim; the package
// tests check outputs), lowered to the OpenQASM basic/standard gate set
// like QASMBench's low-level QASM files.
package qasmbench

import (
	"fmt"
	"sort"

	"svsim/internal/circuit"
	"svsim/internal/decomp"
)

// Entry describes one suite workload with the paper's Table 4 metadata.
type Entry struct {
	Name        string
	Description string
	Category    string // "medium" or "large"
	Qubits      int
	// PaperGates and PaperCX are the counts reported in Table 4 (for
	// EXPERIMENTS.md comparison; generated counts are recomputed live).
	PaperGates int
	PaperCX    int
	// Build returns the workload lowered to the basic+standard gate set
	// (QASMBench's low-level form, whose counts Table 4 reports).
	Build func() *circuit.Circuit
	// Compact returns the workload with compound gates intact, the form
	// SV-Sim's specialized kernels execute natively (diagonal compound
	// gates like cu1 are then communication-free on the distributed
	// backends, which is what the scaling figures exercise).
	Compact func() *circuit.Circuit
}

var suite = []Entry{
	{"seca", "Shor's error correction code for teleportation", "medium", 11, 216, 84,
		func() *circuit.Circuit { return decomp.Expand(SECA(11)) },
		func() *circuit.Circuit { return SECA(11) }},
	{"sat", "Boolean satisfiability problem", "medium", 11, 679, 252,
		func() *circuit.Circuit { return decomp.Expand(SAT(11)) },
		func() *circuit.Circuit { return SAT(11) }},
	{"cc_n12", "Counterfeit-coin finding algorithm", "medium", 12, 22, 11,
		func() *circuit.Circuit { return decomp.Expand(CC(12)) },
		func() *circuit.Circuit { return CC(12) }},
	{"multiply", "Performing 3x5 in a quantum circuit", "medium", 13, 98, 40,
		func() *circuit.Circuit { return decomp.Expand(Multiply()) },
		func() *circuit.Circuit { return Multiply() }},
	{"bv_n14", "Bernstein-Vazirani algorithm", "medium", 14, 41, 13,
		func() *circuit.Circuit { return decomp.Expand(BV(14)) },
		func() *circuit.Circuit { return BV(14) }},
	{"qf21", "Quantum phase estimation to factor 21", "medium", 15, 311, 115,
		func() *circuit.Circuit { return decomp.Expand(QF21(15)) },
		func() *circuit.Circuit { return QF21(15) }},
	{"qft_n15", "Quantum Fourier transform", "medium", 15, 540, 210,
		func() *circuit.Circuit { return decomp.Expand(QFT(15)) },
		func() *circuit.Circuit { return QFT(15) }},
	{"multiplier", "Quantum multiplier", "medium", 15, 574, 246,
		func() *circuit.Circuit { return decomp.Expand(Multiplier15()) },
		func() *circuit.Circuit { return Multiplier15() }},

	{"dnn", "quantum neural network sample", "large", 16, 2016, 384,
		func() *circuit.Circuit { return decomp.Expand(DNN(16, 24)) },
		func() *circuit.Circuit { return DNN(16, 24) }},
	{"bigadder", "Quantum ripple-carry adder", "large", 18, 284, 130,
		func() *circuit.Circuit { return decomp.Expand(BigAdder(18, 13, 200)) },
		func() *circuit.Circuit { return BigAdder(18, 13, 200) }},
	{"cc_n18", "Counterfeit-coin finding algorithm", "large", 18, 34, 17,
		func() *circuit.Circuit { return decomp.Expand(CC(18)) },
		func() *circuit.Circuit { return CC(18) }},
	{"square_root", "Get the square root via amplitude amplification", "large", 18, 2300, 898,
		func() *circuit.Circuit { return decomp.Expand(SquareRoot(18)) },
		func() *circuit.Circuit { return SquareRoot(18) }},
	{"bv_n19", "Bernstein-Vazirani algorithm", "large", 19, 56, 18,
		func() *circuit.Circuit { return decomp.Expand(BV(19)) },
		func() *circuit.Circuit { return BV(19) }},
	{"qft_n20", "Quantum Fourier transform", "large", 20, 970, 380,
		func() *circuit.Circuit { return decomp.Expand(QFT(20)) },
		func() *circuit.Circuit { return QFT(20) }},
	{"cat_state", "Coherent superposition with opposite phase", "large", 22, 22, 21,
		func() *circuit.Circuit { return decomp.Expand(Cat(22)) },
		func() *circuit.Circuit { return Cat(22) }},
	{"ghz_state", "Greenberger-Horne-Zeilinger state", "large", 23, 23, 22,
		func() *circuit.Circuit { return decomp.Expand(GHZ(23)) },
		func() *circuit.Circuit { return GHZ(23) }},

	// Extended suite (beyond Table 4; PaperGates/PaperCX are zero).
	{"wstate", "W state preparation", "extended", 12, 0, 0,
		func() *circuit.Circuit { return decomp.Expand(WState(12)) },
		func() *circuit.Circuit { return WState(12) }},
	{"deutsch_jozsa", "Deutsch-Jozsa with a balanced oracle", "extended", 10, 0, 0,
		func() *circuit.Circuit { return decomp.Expand(DeutschJozsa(10, 0b101101011)) },
		func() *circuit.Circuit { return DeutschJozsa(10, 0b101101011) }},
	{"simon", "Simon's hidden-XOR-mask algorithm", "extended", 12, 0, 0,
		func() *circuit.Circuit { return decomp.Expand(Simon(6, 0b011010)) },
		func() *circuit.Circuit { return Simon(6, 0b011010) }},
	{"grover", "Grover search for a marked element", "extended", 10, 0, 0,
		func() *circuit.Circuit { return decomp.Expand(GroverSearch(6, 0b101101)) },
		func() *circuit.Circuit { return GroverSearch(6, 0b101101) }},
	{"ising", "Trotterized transverse-field Ising evolution", "extended", 10, 0, 0,
		func() *circuit.Circuit { return decomp.Expand(IsingTrotter(10, 1, 0.7, 1, 20)) },
		func() *circuit.Circuit { return IsingTrotter(10, 1, 0.7, 1, 20) }},
	{"qec_bitflip", "bit-flip code with measured syndrome feedback", "extended", 5, 0, 0,
		func() *circuit.Circuit { return decomp.Expand(QECBitFlip(1.1, 1)) },
		func() *circuit.Circuit { return QECBitFlip(1.1, 1) }},
	{"rqc", "quantum-supremacy-style random circuit", "extended", 14, 0, 0,
		func() *circuit.Circuit { return decomp.Expand(RQC(14, 16, 1)) },
		func() *circuit.Circuit { return RQC(14, 16, 1) }},
}

// All returns every suite entry.
func All() []Entry { return append([]Entry(nil), suite...) }

// Medium returns the eight medium circuits (Table 4, upper half), sorted
// by qubit count as in the paper's figures.
func Medium() []Entry { return byCategory("medium") }

// Large returns the eight large circuits (Table 4, lower half).
func Large() []Entry { return byCategory("large") }

func byCategory(cat string) []Entry {
	var out []Entry
	for _, e := range suite {
		if e.Category == cat {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Qubits < out[j].Qubits })
	return out
}

// ByName looks up a suite entry.
func ByName(name string) (Entry, error) {
	for _, e := range suite {
		if e.Name == name {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("qasmbench: unknown circuit %q", name)
}

// Names lists all workload names.
func Names() []string {
	out := make([]string, len(suite))
	for i, e := range suite {
		out[i] = e.Name
	}
	return out
}
