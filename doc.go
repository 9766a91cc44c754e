// Package svsim is a Go reproduction of "SV-Sim: Scalable PGAS-Based
// State Vector Simulation of Quantum Circuits" (SC '21): a full
// state-vector quantum-circuit simulator with specialized per-gate
// kernels, an OpenQASM 2.0 frontend, a QIR-runtime interface, PGAS/SHMEM
// and peer-access distributed backends over an instrumented symmetric
// heap, an MPI pack-exchange baseline, the QASMBench-style workload suite
// of the paper's Table 4, variational drivers (VQE, QNN), and a platform
// performance model that regenerates every figure of the paper's
// evaluation from measured execution traces.
//
// # Pipeline: compile, execute, observe
//
// Every run, on every backend, flows through the same three stages:
//
//   - Compile (internal/compile). One locality-aware pass sequences gate
//     fusion (internal/fusion) and communication-avoiding scheduling
//     (internal/sched) and emits an immutable CompiledPlan: the
//     executable gate stream, per-gate classifications, the schedule's
//     block/remap step list, each remap's precomputed exchange phases,
//     the logical-to-physical permutation trace, the diagonal runs
//     (stretches of consecutive diagonal gates that execute as one pass
//     each) and — for the tiled single-node path — a TilePlan of gate
//     runs that fit cache-resident tiles of the amplitude arrays. Plans are memoized in an LRU
//     compile.Cache keyed on the parameter-free circuit skeleton, so
//     variational sweeps compile once per ansatz shape; a cache hit
//     only re-binds the parameter-dependent gates of the cached plan.
//
//   - Execute (internal/core and friends). Five backends, the rows of
//     one backend table, consume the one CompiledPlan: single (one rank,
//     specialized SoA kernels), threaded (one rank, a shared-state worker
//     pool), scale-up (peer pointer array, the paper's Listing 4),
//     scale-out (SHMEM one-sided, Listing 5, over internal/pgas), and
//     mpi, the traditional two-sided baseline (pack-exchange under the
//     naive plan, JUQCS-style remapping under the lazy one). All five
//     are one runtime in internal/core — a plan walked by one step loop
//     over a transport — differing only in the grid size, the transport
//     (local, one-sided PGAS, two-sided messages) and the plan (naive vs
//     lazy). A stretch of consecutive diagonal gates is one
//     step of that loop and one pass over the amplitudes it changes: a
//     product of two table entries indexed by the stretch's logical
//     qubits, so every backend, tile and layout rounds it identically.
//     On a one-rank grid the loop additionally executes cache-blocked
//     tile groups: every tile-compatible run of gates is applied to one
//     cache-resident tile at a time, cutting memory traffic by a factor
//     near the run length while remaining bit-identical to per-gate
//     execution.
//
//   - Observe (internal/obs). Per-gate Chrome-trace timelines, a metrics
//     registry with OpenMetrics export, phase-attribution reports,
//     a flight recorder for post-mortem debugging, and checkpoint/fault
//     counters — all zero-cost when off (hot loops see one nil check).
//     The commands reach them through two flags, -obs-dir DIR (four
//     artifact files, written on clean, failed and interrupted exits
//     alike) and -obs-listen ADDR (/metrics, /debug/flight, /debug/pprof).
//
// Around that spine sit the frontends (internal/qasm, internal/qir,
// internal/circuit), the workload suite (internal/qasmbench), fault
// tolerance (internal/fault injection, internal/ckpt coordinated
// checkpoint/restore), the comparator simulators of Fig. 14
// (internal/baseline), and the analytic platform model
// (internal/perfmodel) that prices measured traces into the paper's
// latency figures.
//
// The public surface lives in the subpackages under internal/ (this is a
// research reproduction, versioned as a single module); cmd/svsim,
// cmd/svbench, cmd/qasmdump, cmd/benchdiff, and cmd/doccheck are the
// executables, and examples/ holds runnable walkthroughs. See README.md,
// DESIGN.md, and EXPERIMENTS.md.
package svsim
