package statevec

import (
	"sync"

	"svsim/internal/gate"
)

// Pool is the shared-memory parallel kernel engine of the paper's
// Listing 3: a fixed set of worker goroutines (the OpenMP threads) that
// split every gate's index space and synchronize with a barrier at the
// end of each gate ("a synchronization barrier is needed at the end to
// ensure data consistency across the loops of consecutive gates"). All
// workers operate on ONE state array through the unified address space —
// the single-node CPU scale-up design, as opposed to the partitioned
// PGAS backends.
type Pool struct {
	workers int
	jobs    chan poolJob
	wg      sync.WaitGroup
	closed  bool
}

type poolJob struct {
	run  func(lo, hi int)
	lo   int
	hi   int
	done *sync.WaitGroup
}

// NewPool starts a pool with the given worker count (minimum 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers, jobs: make(chan poolJob)}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			for j := range p.jobs {
				j.run(j.lo, j.hi)
				j.done.Done()
			}
		}()
	}
	return p
}

// Workers reports the pool size.
func (p *Pool) Workers() int { return p.workers }

// Close stops the workers. The pool must not be used afterwards.
func (p *Pool) Close() {
	if !p.closed {
		p.closed = true
		close(p.jobs)
		p.wg.Wait()
	}
}

// parallelFor splits [0, n) across the workers and blocks until every
// chunk completes (the per-gate barrier).
func (p *Pool) parallelFor(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	chunk := (n + p.workers - 1) / p.workers
	var done sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		done.Add(1)
		p.jobs <- poolJob{run: body, lo: lo, hi: hi, done: &done}
	}
	done.Wait()
}

// ForTiles splits the tile index space [0, numTiles) across the workers
// and blocks until every tile is processed: one barrier per tiled group
// instead of one per gate. The body applies a whole gate run to its tile
// and returns the (amplitudes, flops) visited; ForTiles sums the
// contributions worker-locally and returns the totals, so tile kernels
// never touch State.Stats from worker goroutines.
func (p *Pool) ForTiles(numTiles int, body func(tile int) (amps, flops int64)) (amps, flops int64) {
	var mu sync.Mutex
	p.parallelFor(numTiles, func(lo, hi int) {
		var a, f int64
		for t := lo; t < hi; t++ {
			ta, tf := body(t)
			a += ta
			f += tf
		}
		mu.Lock()
		amps += a
		flops += f
		mu.Unlock()
	})
	return amps, flops
}

// ApplyShared executes one unitary gate on the shared state with the
// paper's parallel-for structure: the gate's compressed iteration space
// is cut into one share per worker and each share runs the same kernel
// Apply runs, so the result is bit-identical to Apply at any worker
// count. Shares never conflict: every index of the compressed space
// owns its own amplitude pair (or orbit).
func (p *Pool) ApplyShared(s *State, g *gate.Gate) {
	if g.Kind == gate.BARRIER {
		return
	}
	s.Stats.add(p.ForTiles(p.workers, func(part int) (int64, int64) {
		w := s.window(0, s.Dim)
		w.part, w.parts = part, p.workers
		return w.apply(g)
	}))
}
