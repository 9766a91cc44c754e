package figures

import (
	"math/rand"

	"svsim/internal/core"
	"svsim/internal/perfmodel"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
	"svsim/internal/vqa"
)

// Fig16 runs the H2 VQE end to end (UCCSD ansatz, Nelder-Mead, the
// paper's 58 iterations) and reports the energy trajectory that converges
// to ~ -1.137 Ha.
func Fig16() *Table {
	res := vqa.RunH2VQE(vqa.VQEConfig{})
	t := &Table{
		ID:      "fig16",
		Title:   "Estimated energy through VQE for H2 (measured run)",
		Columns: []string{"iteration", "energy(Ha)"},
		Notes: "paper: 58 Nelder-Mead iterations converging to the H2 bound energy; " +
			"reference FCI/STO-3G total energy -1.1373 Ha",
	}
	for i, e := range res.Trajectory {
		t.Rows = append(t.Rows, Row{Label: itoa(i + 1), Values: []float64{e}})
	}
	t.Rows = append(t.Rows, Row{Label: "trials", Values: []float64{float64(res.Trials)}})
	t.Rows = append(t.Rows, Row{Label: "avg-trial-ms", Values: []float64{
		float64(res.AvgTrialTime.Nanoseconds()) / 1e6}})
	return t
}

func itoa(i int) string { return fmtInt(i) }

func fmtInt(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	neg := i < 0
	if neg {
		i = -i
	}
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		pos--
		buf[pos] = '-'
	}
	return string(buf[pos:])
}

// Fig17 reports the VQE-UCCSD gate volume versus qubit count (the paper:
// ~600 gates at 5 qubits growing to 2.3M at 24 qubits).
func Fig17() *Table {
	t := &Table{
		ID:      "fig17",
		Title:   "Gates in VQE with respect to qubits (UCCSD synthesis count)",
		Columns: []string{"qubits", "gates", "cx"},
		Notes:   "paper: ~6 hundred gates at 5 qubits to 2.3M at 24 qubits",
	}
	for n := 5; n <= 24; n++ {
		t.Rows = append(t.Rows, Row{Label: fmtInt(n), Values: []float64{
			float64(qasmbench.UCCSDGateCount(n)), float64(qasmbench.UCCSDCXCount(n)),
		}})
	}
	return t
}

// QNNStudy runs the §5 power-grid QNN case study: training the Figure 1
// style classifier on 20 synthetic contingency cases for two epochs.
func QNNStudy() *Table {
	rng := rand.New(rand.NewSource(12))
	train := vqa.GridDataset(rng, 20)
	test := vqa.GridDataset(rng, 37)
	backend := core.NewSingleDevice(core.Config{})
	res := vqa.TrainQNN(backend, train, test, 2, 60, 5)
	t := &Table{
		ID:      "qnn",
		Title:   "QNN for power-grid contingency classification (measured run)",
		Columns: []string{"epoch", "train-accuracy", "test-accuracy"},
		Notes:   "paper: testing accuracy 28.11% -> 72.97% after two epochs on 20 training cases",
	}
	for e := range res.TestAccuracy {
		t.Rows = append(t.Rows, Row{Label: fmtInt(e + 1), Values: []float64{
			res.TrainAccuracy[e], res.TestAccuracy[e],
		}})
	}
	t.Rows = append(t.Rows, Row{Label: "circuits-simulated", Values: []float64{float64(res.Trials)}})
	return t
}

// Headline models the paper's flagship number: a 24-qubit VQE-UCCSD
// iteration (millions of gates) on the 16-GPU DGX-2, which the paper
// simulates in 196 s.
func Headline() *Table {
	n := 24
	thetas := make([]float64, qasmbench.UCCSDNumParams(n))
	c := qasmbench.BuildUCCSD(n, thetas)
	tr := perfmodel.TraceEstimate(c)
	est := perfmodel.EstimateComm(c, 16)
	tr.RemoteBytes = est.RemoteBytes
	tr.RemoteMsgs = est.RemoteMsgs
	seconds := perfmodel.GPUScaleUpSeconds(tr, perfmodel.V100DGX2, 16)
	t := &Table{
		ID:      "headline",
		Title:   "24-qubit VQE-UCCSD trial on 16-GPU V100 DGX-2 (modeled)",
		Columns: []string{"quantity", "value"},
		Notes:   "paper: 2.3M gates simulated in 196 s (3.5 min)",
	}
	t.Rows = append(t.Rows,
		Row{Label: "gates", Values: []float64{float64(tr.Gates)}},
		Row{Label: "state-GiB", Values: []float64{float64(tr.StateBytes) / (1 << 30)}},
		Row{Label: "remote-GiB", Values: []float64{float64(tr.RemoteBytes) / (1 << 30)}},
		Row{Label: "modeled-seconds", Values: []float64{seconds}},
	)
	return t
}

// CommComparison is the repo's ablation table: the same circuit under the
// fine-grained PGAS backend (element and coalesced modes) versus the
// coarse-grained MPI baseline, in measured message/byte terms — the
// structural difference the whole paper is about (§2.1). The remap
// columns are the MPI baseline under the lazy plan: remap-MB counts each
// amplitude a remap moves once, as the pairwise exchange moves it.
func CommComparison(pes int) *Table {
	t := &Table{
		ID:    "comm",
		Title: "Measured communication structure: PGAS one-sided vs MPI pack-exchange vs qubit remapping",
		Columns: []string{"circuit", "pgas-msgs", "pgas-MB", "coalesced-msgs",
			"coalesced-MB", "mpi-msgs", "mpi-MB", "mpi-staged-MB", "remap-swaps", "remap-MB"},
	}
	for _, e := range qasmbench.Medium() {
		c := e.Compact().StripNonUnitary()
		elem, err := core.NewScaleOut(core.Config{PEs: pes}).Run(c)
		if err != nil {
			panic(err)
		}
		coal, err := core.NewScaleOut(core.Config{PEs: pes, Coalesced: true}).Run(c)
		if err != nil {
			panic(err)
		}
		mpi, err := core.NewMPI(core.Config{PEs: pes}).Run(c)
		if err != nil {
			panic(err)
		}
		remap, err := core.NewMPI(core.Config{PEs: pes, Sched: sched.Lazy}).Run(c)
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, Row{Label: e.Name, Values: []float64{
			float64(elem.Comm.RemoteMessages()), float64(elem.Comm.RemoteBytes) / 1e6,
			float64(coal.Comm.RemoteMessages()), float64(coal.Comm.RemoteBytes) / 1e6,
			float64(mpi.MPI.Messages), float64(mpi.MPI.MsgBytes) / 1e6,
			float64(mpi.MPI.HostStagedBytes) / 1e6,
			float64(remap.Compile.BitSwaps), float64(remap.MPI.MsgBytes) / 1e6,
		}})
	}
	return t
}
