package ckpt

import (
	"fmt"
	"os"
	"sync"
	"time"

	"svsim/internal/statevec"
)

// Payload is the snapshot one PE hands to the background checkpoint
// writer: a copy of its whole partition. Capturing one is pure memcpy;
// serialization happens later, off the compute path. A payload is reused
// from one checkpoint to the next: a capture overwrites its buffers, so
// the previous write must have finished with them.
type Payload struct {
	Qubits int // partition qubit count (localBits)
	Re, Im []float64
}

// CaptureFull copies st into a new payload.
func CaptureFull(st *statevec.State) *Payload { return new(Payload).Capture(st) }

// Capture copies st's whole partition into p and returns p. The buffers
// are allocated on p's first capture and reused.
func (p *Payload) Capture(st *statevec.State) *Payload {
	p.Qubits = st.N
	p.Re, p.Im = resize(p.Re, st.Dim), resize(p.Im, st.Dim)
	copy(p.Re, st.Re)
	copy(p.Im, st.Im)
	return p
}

// resize returns b at length n, reallocating only when it is too short.
func resize(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

// WritePayloadShard serializes a captured payload into dir as rank's
// shard in the statevec format, crash-atomically, and returns its
// manifest entry.
func WritePayloadShard(dir string, rank int, p *Payload) (Shard, error) {
	name := ShardFile(rank)
	st := &statevec.State{N: p.Qubits, Dim: len(p.Re), Re: p.Re, Im: p.Im}
	n, crc, err := atomicWrite(dir, name, st.WriteTo)
	if err != nil {
		return Shard{}, fmt.Errorf("ckpt: writing shard %d: %w", rank, err)
	}
	return Shard{Rank: rank, File: name, Bytes: n, CRC32: crc}, nil
}

// AsyncWriter serializes checkpoints on a background goroutine so the
// compute fleet resumes as soon as its snapshots are captured. One job is
// in flight at a time: callers reuse their payloads from one checkpoint
// to the next, so they Wait for the previous job to release them before
// capturing again, and a fleet that checkpoints faster than the disk
// drains stalls there instead of accumulating snapshot memory.
//
// Failure model: the first write error latches (sticky) and Wait and
// every subsequent Submit return it — a run cannot silently keep
// computing while its durability story has stopped. Close drains the
// job in flight and reports the latched error; callers must Close before
// reading any checkpoint the writer produced.
type AsyncWriter struct {
	jobs chan *writeJob
	done chan struct{}
	busy sync.WaitGroup // the job in flight

	mu  sync.Mutex
	err error

	// OnJob, when non-nil, is called from the writer goroutine after
	// each job finishes (successfully or not) with the checkpoint step,
	// total shard bytes, and wall time spent writing. Used by backends
	// to feed metrics and the flight recorder without coupling this
	// package to obs.
	OnJob func(step int, bytes int64, ns int64, err error)
}

// writeJob is one checkpoint: the target directory, the manifest to
// publish last, and one captured payload per rank.
type writeJob struct {
	dir      string
	manifest *Manifest
	payloads []*Payload
}

// AsyncQueueDepth is how many checkpoints may be in flight (queued or
// being written) at once.
const AsyncQueueDepth = 1

// NewAsyncWriter starts the background writer goroutine.
func NewAsyncWriter() *AsyncWriter {
	w := &AsyncWriter{
		jobs: make(chan *writeJob, AsyncQueueDepth),
		done: make(chan struct{}),
	}
	go w.loop()
	return w
}

// Submit hands one checkpoint to the writer: m.Shards is filled in by
// the writer; payloads[r] is rank r's captured snapshot, which the writer
// holds until Wait returns. If a previous job failed, the latched error
// is returned and the job is dropped.
func (w *AsyncWriter) Submit(dir string, m *Manifest, payloads []*Payload) error {
	if err := w.Err(); err != nil {
		return err
	}
	if len(payloads) != m.PEs {
		return fmt.Errorf("ckpt: async submit: %d payloads for %d PEs", len(payloads), m.PEs)
	}
	w.busy.Add(1)
	w.jobs <- &writeJob{dir: dir, manifest: m, payloads: payloads}
	return nil
}

// Wait blocks until the job in flight, if any, has landed (its payloads
// are free for the next capture) and returns the latched error.
func (w *AsyncWriter) Wait() error {
	w.busy.Wait()
	return w.Err()
}

// Err returns the latched write error, if any.
func (w *AsyncWriter) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close drains the job in flight, stops the writer goroutine, and
// returns the latched error. The writer is unusable afterwards.
func (w *AsyncWriter) Close() error {
	close(w.jobs)
	<-w.done
	return w.Err()
}

func (w *AsyncWriter) loop() {
	defer close(w.done)
	for job := range w.jobs {
		w.run(job)
		w.busy.Done()
	}
}

// run writes one job unless an earlier one failed, latching its error.
func (w *AsyncWriter) run(job *writeJob) {
	if w.Err() != nil {
		return // latched: drain without writing
	}
	start := time.Now()
	bytes, err := w.write(job)
	ns := time.Since(start).Nanoseconds()
	if err != nil {
		w.mu.Lock()
		w.err = err
		w.mu.Unlock()
	}
	if w.OnJob != nil {
		w.OnJob(job.manifest.Step, bytes, ns, err)
	}
}

// write lands one checkpoint on disk: shards first, manifest last, all
// crash-atomic. Shards are written concurrently (one goroutine each) so
// their fsyncs overlap in the kernel.
func (w *AsyncWriter) write(job *writeJob) (int64, error) {
	if err := os.MkdirAll(job.dir, 0o755); err != nil {
		return 0, fmt.Errorf("ckpt: async mkdir: %w", err)
	}
	m := job.manifest
	m.Shards = make([]Shard, len(job.payloads))
	errs := make([]error, len(job.payloads))
	var wg sync.WaitGroup
	for r, p := range job.payloads {
		wg.Add(1)
		go func(r int, p *Payload) {
			defer wg.Done()
			m.Shards[r], errs[r] = WritePayloadShard(job.dir, r, p)
		}(r, p)
	}
	wg.Wait()
	var total int64
	for r, err := range errs {
		if err != nil {
			return total, err
		}
		total += m.Shards[r].Bytes
	}
	if err := WriteManifest(job.dir, m); err != nil {
		return total, err
	}
	return total, nil
}
