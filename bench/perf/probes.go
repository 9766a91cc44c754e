package perf

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"svsim/internal/circuit"
	"svsim/internal/ckpt"
	"svsim/internal/compile"
	"svsim/internal/fusion"
	"svsim/internal/gate"
	"svsim/internal/pgas"
	"svsim/internal/qasm"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
	"svsim/internal/statevec"
)

// probes measures one public function of each layer in isolation. They do
// not depend on the workload, so every traced run reports the same set
// and a layer's probe can be read next to any workload's run_s.
func probes(e *env, m map[string]float64) error {
	roofline := probeRoofline(e, m)
	probeKernels(e, m, roofline)
	probePool(e, m)
	probePGAS(e, m)
	if err := probeCompile(e, m); err != nil {
		return err
	}
	if err := probeCkpt(e, m); err != nil {
		return err
	}
	return probeQASM(e, m)
}

// timed returns the median duration of reps calls of fn in seconds, after
// one untimed call, with one span over the lot.
func timed(e *env, name string, fn func()) float64 {
	sp := e.rec.Start(name, 0, -1)
	defer e.rec.End(sp)
	fn()
	ds := make([]float64, e.size.ProbeReps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0).Seconds()
	}
	return median(ds)
}

// probeRoofline measures the bandwidth ceiling the out-of-cache kernels are
// read against: the runtime's memmove between two arrays the size of the
// probe state's Re and Im, counting bytes read plus bytes written. The
// arrays are the state's size, not a multiple of the last-level cache,
// because the n = 22 state (64 MiB) sits inside the 260 MiB L3 this host
// reports, where memmove runs twice as fast as from DRAM (24 against 12
// GB/s with 1040 MiB arrays): against a DRAM-sized roofline every kernel
// would read above 100 %. Returns bytes per second.
func probeRoofline(e *env, m map[string]float64) float64 {
	n := 1 << e.size.KernelQubits
	re, im := make([]float64, n), make([]float64, n)
	for i := range re {
		re[i], im[i] = 1, 0.5
	}
	e.note("roofline.array_mb %.3g MiB", float64(8*n)/(1<<20))
	e.note("roofline.l3_mb %.0f MiB", float64(cacheBytes(3))/(1<<20))
	sec := timed(e, "statevec.roofline", func() { copy(re, im) })
	bps := float64(2*8*n) / sec
	m["statevec.roofline_rw_gbps"] = bps / 1e9
	return bps
}

// kernelGate builds the probe gate of a kind on target t; two-qubit
// kinds take their control half a register away.
func kernelGate(kind string, t, n int) gate.Gate {
	c := (t + n/2) % n
	switch kind {
	case "h":
		return gate.NewH(t)
	case "x":
		return gate.NewX(t)
	case "u1":
		return gate.NewU1(0.3, t)
	case "u3":
		return gate.NewU3(0.3, 0.2, 0.1, t)
	case "cx":
		return gate.NewCX(c, t)
	default:
		return gate.NewCU1(0.3, c, t)
	}
}

// spread fills a state with amplitudes of like size, so that no kernel
// runs on the zeros of a basis state.
func spread(n int) *statevec.State {
	st := statevec.New(n)
	st.Style = statevec.Vectorized
	rng := rand.New(rand.NewSource(1))
	norm := math.Pow(2, -float64(n)/2)
	for i := range st.Re {
		a := 2 * math.Pi * rng.Float64()
		st.Re[i], st.Im[i] = norm*math.Cos(a), norm*math.Sin(a)
	}
	return st
}

// probeKernels times State.Apply per gate kind and target position, out of
// cache and in cache, in ns per state amplitude, and reports how close the
// out-of-cache probes come to the roofline on the bytes they move.
func probeKernels(e *env, m map[string]float64, roofline float64) {
	n := e.size.KernelQubits
	st := spread(n)
	targets := map[string]int{"lo": 0, "mid": n / 2, "hi": n - 1}
	var pct []float64
	for _, kind := range kernelKinds {
		for _, pos := range kernelPos {
			g := kernelGate(kind, targets[pos], n)
			before := st.Stats.BytesTouched
			sec := timed(e, "statevec.Apply_"+kind+"_"+pos, func() { st.Apply(&g) })
			// The kernels count each amplitude they touch once, 16
			// bytes; it is read and written, so traffic is twice that.
			traffic := 2 * float64(st.Stats.BytesTouched-before) / float64(e.size.ProbeReps+1)
			m["statevec."+kind+"_"+pos+"_n22.ns_per_amp"] = sec * 1e9 / float64(st.Dim)
			pct = append(pct, 100*traffic/sec/roofline)
		}
	}
	m["statevec.n22.roofline_pct"] = sum(pct) / float64(len(pct))

	small := spread(e.size.CacheQubits)
	for _, kind := range kernelKinds {
		g := kernelGate(kind, small.N/2, small.N)
		// One pass over an in-cache state is microseconds; time many.
		const passes = 64
		sec := timed(e, "statevec.Apply_"+kind+"_incache", func() {
			for i := 0; i < passes; i++ {
				small.Apply(&g)
			}
		})
		m["statevec."+kind+"_mid_n14.ns_per_amp"] = sec * 1e9 / passes / float64(small.Dim)
	}
}

// probePool times the shared-memory paths of the threaded backend: a
// per-gate ApplyShared on 1 and 2 workers, the tile kernel over every
// tile, and what one ForTiles dispatch costs with nothing to do.
func probePool(e *env, m map[string]float64) {
	n := e.size.KernelQubits
	st := spread(n)
	h := gate.NewH(n / 2)
	for _, workers := range []int{1, 2} {
		pool := statevec.NewPool(workers)
		sec := timed(e, "statevec.Pool.ApplyShared", func() { pool.ApplyShared(st, &h) })
		pool.Close()
		m["statevec.pool_h_mid_n22_w"+strconv.Itoa(workers)+".ns_per_amp"] = sec * 1e9 / float64(st.Dim)
	}
	lo := gate.NewH(0)
	tile := 1 << min(compile.DefaultTileBits, n)
	sec := timed(e, "statevec.ApplyTile", func() {
		for at := 0; at < st.Dim; at += tile {
			st.ApplyTile(&lo, at, at+tile)
		}
	})
	m["statevec.tile_h_lo_n22.ns_per_amp"] = sec * 1e9 / float64(st.Dim)

	pool := statevec.NewPool(2)
	defer pool.Close()
	const calls = 256
	sec = timed(e, "statevec.Pool.ForTiles", func() {
		for i := 0; i < calls; i++ {
			pool.ForTiles(st.Dim/tile, func(int) (int64, int64) { return 0, 0 })
		}
	})
	m["statevec.pool_fortiles_empty_us"] = sec * 1e6 / calls
}

// probePGAS times the one-sided operations between 2 PEs: single remote
// elements, 1 MiB vectors, and the two barriers.
func probePGAS(e *env, m map[string]float64) {
	const (
		elems    = 1 << 17 // 1 MiB of float64
		ops      = 1 << 15
		barriers = 1 << 12
	)
	comm := pgas.NewComm(2)
	sym := comm.NewSymF64(elems)
	group := comm.Group([]int{0, 1})
	buf := make([]float64, elems)
	// on runs body on PE 0 between two barriers while PE 1 waits, and
	// returns how long the body took on PE 0.
	on := func(name string, body func(pe *pgas.PE)) float64 {
		var sec float64
		comm.Run(func(pe *pgas.PE) {
			pe.Barrier()
			if pe.Rank == 0 {
				sec = timed(e, name, func() { body(pe) })
			}
			pe.Barrier()
		})
		return sec
	}
	var sink float64
	m["pgas.get_ns"] = on("pgas.Get", func(pe *pgas.PE) {
		for i := 0; i < ops; i++ {
			sink += pe.Get(sym, 1, i)
		}
	}) * 1e9 / ops
	m["pgas.put_ns"] = on("pgas.Put", func(pe *pgas.PE) {
		for i := 0; i < ops; i++ {
			pe.Put(sym, 1, i, sink)
		}
	}) * 1e9 / ops
	const vecs = 16
	m["pgas.getv_gbps"] = vecs * 8 * elems / 1e9 / on("pgas.GetV", func(pe *pgas.PE) {
		for i := 0; i < vecs; i++ {
			pe.GetV(sym, 1, 0, buf)
		}
	})
	m["pgas.putv_gbps"] = vecs * 8 * elems / 1e9 / on("pgas.PutV", func(pe *pgas.PE) {
		for i := 0; i < vecs; i++ {
			pe.PutV(sym, 1, 0, buf)
		}
	})
	// Barriers need both PEs in the loop; PE 0 holds the clock.
	both := func(name string, barrier func(pe *pgas.PE)) float64 {
		var sec float64
		comm.Run(func(pe *pgas.PE) {
			loop := func() {
				for i := 0; i < barriers; i++ {
					barrier(pe)
				}
			}
			if pe.Rank == 0 {
				sec = timed(e, name, loop)
				return
			}
			for i := 0; i <= e.size.ProbeReps; i++ {
				loop()
			}
		})
		return sec
	}
	m["pgas.barrier_us"] = both("pgas.Barrier", func(pe *pgas.PE) { pe.Barrier() }) * 1e6 / barriers
	m["pgas.group_barrier_us"] = both("pgas.Group.Barrier", func(pe *pgas.PE) { group.Barrier(pe) }) * 1e6 / barriers
}

// uccsdPoint builds one point of the vqe_sweep ansatz.
func uccsdPoint(n int, offset float64) *circuit.Circuit {
	thetas := make([]float64, qasmbench.UCCSDNumParams(n))
	for i := range thetas {
		thetas[i] = offset + 0.01*float64(i)
	}
	return qasmbench.BuildUCCSD(n, thetas)
}

// probeCompile times the compile pipeline on the vqe_sweep ansatz (cold,
// then a cache hit with new angles), fusion alone, and the lazy scheduler
// on the rqc20 circuit. Cold compiles cannot repeat on one cache, so each
// timing takes a fresh one.
func probeCompile(e *env, m map[string]float64) error {
	a, b := uccsdPoint(e.size.UCCSDQubits, 0.1), uccsdPoint(e.size.UCCSDQubits, 0.2)
	var err error
	m["compile.cold_ms"] = 1e3 * timed(e, "compile.Compile_cold", func() {
		if _, _, cerr := compile.Compile(a, compile.Config{Fuse: true, Cache: compile.NewCache(1)}); cerr != nil {
			err = cerr
		}
	})
	cache := compile.NewCache(1)
	if _, _, cerr := compile.Compile(a, compile.Config{Fuse: true, Cache: cache}); cerr != nil {
		return cerr
	}
	m["compile.hit_us"] = 1e6 * timed(e, "compile.Compile_hit", func() {
		if _, _, cerr := compile.Compile(b, compile.Config{Fuse: true, Cache: cache}); cerr != nil {
			err = cerr
		}
	})
	m["fusion.optimize_ms"] = 1e3 * timed(e, "fusion.Optimize", func() { fusion.Optimize(a) })
	rqc := qasmbench.RQC(e.size.RQCQubits, e.size.RQCLayers, 1)
	m["sched.build_ms"] = 1e3 * timed(e, "sched.Build", func() {
		if _, serr := sched.Build(rqc, rqc.NumQubits-1, sched.Lazy); serr != nil {
			err = serr
		}
	})
	return err
}

// probeCkpt times the three steps a checkpoint is made of on one shard:
// the copy-on-write capture, the fsynced write, and the CRC-checked read.
func probeCkpt(e *env, m map[string]float64) error {
	st := spread(e.size.ShardQubits)
	mb := float64(16*st.Dim) / 1e6
	m["ckpt.capture_full_ms"] = 1e3 * timed(e, "ckpt.CaptureFull", func() { ckpt.CaptureFull(st) })
	dir := filepath.Join(e.tmp, "ckpt-probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var shard ckpt.Shard
	var err error
	m["ckpt.write_shard_mbps"] = mb / timed(e, "ckpt.WriteShard", func() {
		var werr error
		if shard, werr = ckpt.WriteShard(dir, 0, st); werr != nil {
			err = werr
		}
	})
	if err != nil {
		return err
	}
	m["ckpt.read_shard_mbps"] = mb / timed(e, "ckpt.ReadShard", func() {
		if _, rerr := ckpt.ReadShard(dir, shard, st.N); rerr != nil {
			err = rerr
		}
	})
	return err
}

// probeQASM times the parser on the largest medium circuit's dump.
func probeQASM(e *env, m map[string]float64) error {
	entry, err := qasmbench.ByName("qft_n15")
	if err != nil {
		return err
	}
	c := entry.Build()
	src := qasm.Dump(c)
	m["qasm.parse_us_per_gate"] = 1e6 / float64(c.NumGates()) * timed(e, "qasm.Parse", func() {
		if _, perr := qasm.Parse(src); perr != nil {
			err = perr
		}
	})
	return err
}
