// Package ckpt implements the coordinated checkpoint format shared by
// every SV-Sim backend: one directory per checkpoint holding a
// CRC-validated state-vector shard per PE plus a JSON manifest carrying
// the schedule position, RNG replay count, classical register, and (for
// the lazy executor) the current logical-to-physical qubit permutation.
//
// Layout under a checkpoint base directory:
//
//	base/ckpt-<step>/shard-<rank>.svs   statevec serialization, one per PE
//	base/ckpt-<step>/MANIFEST.json     written last, via tmp+rename
//
// The manifest's presence marks a checkpoint complete: a crash while
// shards are being written leaves a directory without a manifest, which
// Latest skips. Restore validates shard CRCs and sizes against the
// manifest, so torn or bit-flipped shards surface as typed errors rather
// than corrupt amplitudes.
package ckpt

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"svsim/internal/circuit"
	"svsim/internal/statevec"
)

// Schema identifies the manifest format. Version 2 added Kind and
// OpsDone; ReadManifest restores only KindFull. Version 1 manifests are
// still read (as full checkpoints with unknown OpsDone).
const Schema = "svsim-ckpt/v2"

// SchemaV1 is the pre-v2 manifest format, accepted on read.
const SchemaV1 = "svsim-ckpt/v1"

// KindFull, the one checkpoint kind, marks a self-contained checkpoint:
// every shard holds the PE's whole partition.
const KindFull = "full"

const manifestName = "MANIFEST.json"

// Shard describes one PE's state-vector fragment.
type Shard struct {
	Rank  int    `json:"rank"`
	File  string `json:"file"`
	Bytes int64  `json:"bytes"`
	CRC32 uint32 `json:"crc32"`
}

// Manifest is the checkpoint metadata, written by rank 0 after every
// shard has landed.
type Manifest struct {
	Schema      string `json:"schema"`
	Backend     string `json:"backend"`
	Circuit     string `json:"circuit"`
	CircuitHash uint64 `json:"circuit_hash"`
	// PlanFingerprint hashes the compiled schedule the run executes
	// (compile.PlanFingerprint); a resume under a plan with a different
	// remap sequence would place amplitudes at other PEs, so mismatches
	// are rejected. Zero in manifests from older builds.
	PlanFingerprint uint64 `json:"plan_fingerprint,omitempty"`
	NumQubits       int    `json:"num_qubits"`
	PEs             int    `json:"pes"`
	Sched           string `json:"sched"`
	// Step counts completed schedule positions: gates for the naive
	// schedules, plan steps for the lazy executor. Resume re-enters the
	// loop at this index.
	Step int   `json:"step"`
	Seed int64 `json:"seed"`
	// Kind is KindFull; empty (v1 manifests) means full.
	Kind string `json:"kind,omitempty"`
	// OpsDone counts executable-stream ops completed at the quiesced
	// boundary. Unlike Step (whose numbering depends on the schedule and
	// fleet size), an op count is geometry-independent, which is what
	// lets the elastic restore planner re-shard a checkpoint onto a
	// different PE count: the residual circuit is the executable stream
	// sliced at OpsDone. ReadManifest reports -1 for v1 manifests,
	// which never recorded it.
	OpsDone int `json:"ops_done"`
	// Draws is how many uniform variates each PE's replicated RNG stream
	// has consumed; restore replays that many to re-synchronize.
	Draws int64  `json:"rng_draws"`
	Cbits uint64 `json:"cbits"`
	// Perm is the lazy executor's logical-to-physical permutation at the
	// quiesced boundary; empty for naive schedules.
	Perm   []int   `json:"perm,omitempty"`
	Shards []Shard `json:"shards"`
}

// Stats accumulates checkpoint activity for reporting.
type Stats struct {
	Count int64 // checkpoints written
	Bytes int64 // total shard bytes
	// NS is the compute-path stall: from the quiesce to the hand-off to
	// the background writer, including the wait for the previous write to
	// release the snapshots. The writer's own time is the
	// ckpt_writer_ns metric.
	NS int64
}

// Add merges o into s.
func (s *Stats) Add(o Stats) {
	s.Count += o.Count
	s.Bytes += o.Bytes
	s.NS += o.NS
}

// Hash is the FNV-1a 64 state behind the fingerprints a manifest records
// (the circuit's here, compile's plan fingerprint): the values of
// hash/fnv's New64a, without the interface and the staging buffer. They
// are persisted, so the byte stream a fingerprint feeds it must never
// change.
type Hash uint64

// NewHash returns the FNV-1a offset basis.
func NewHash() Hash { return 14695981039346656037 }

// U64 hashes v as eight little-endian bytes.
func (h *Hash) U64(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x = (x ^ v&0xff) * 1099511628211
		v >>= 8
	}
	*h = Hash(x)
}

// Str hashes the bytes of s.
func (h *Hash) Str(s string) {
	x := uint64(*h)
	for i := 0; i < len(s); i++ {
		x = (x ^ uint64(s[i])) * 1099511628211
	}
	*h = Hash(x)
}

// Fingerprint hashes the structural identity of a circuit (FNV-1a over
// name, register sizes, and every op) so a resume against a different
// circuit is rejected instead of producing garbage.
func Fingerprint(c *circuit.Circuit) uint64 {
	h := NewHash()
	h.Str(c.Name)
	h.U64(uint64(c.NumQubits))
	h.U64(uint64(c.NumClbits))
	for i := range c.Ops {
		op := &c.Ops[i]
		h.U64(uint64(op.G.Kind))
		h.U64(uint64(op.G.NQ))
		for _, q := range op.G.OperandQubits() {
			h.U64(uint64(q))
		}
		for _, p := range op.G.ParamSlice() {
			h.U64(math.Float64bits(p))
		}
		h.U64(uint64(int64(op.G.Cbit)))
		if op.Cond != nil {
			h.U64(uint64(op.Cond.Offset))
			h.U64(uint64(op.Cond.Width))
			h.U64(op.Cond.Value)
		}
	}
	return uint64(h)
}

// StepDir names the directory of the checkpoint taken at a schedule step.
func StepDir(base string, step int) string {
	return filepath.Join(base, fmt.Sprintf("ckpt-%d", step))
}

// ShardFile names a rank's shard file within a checkpoint directory.
func ShardFile(rank int) string {
	return fmt.Sprintf("shard-%d.svs", rank)
}

// WriteShard serializes st into dir as rank's shard and returns its
// manifest entry (size and CRC32-IEEE of the file contents). The write
// is crash-atomic: the bytes land in a temp file which is fsynced and
// renamed into place, so a crash mid-write leaves no partial shard
// under the final name. It is WritePayloadShard over a full payload that
// views st's amplitudes without copying them.
func WriteShard(dir string, rank int, st *statevec.State) (Shard, error) {
	return WritePayloadShard(dir, rank, &Payload{Qubits: st.N, Re: st.Re, Im: st.Im})
}

// atomicWrite streams write's output into dir/name crash-atomically
// (temp file, fsync, rename, directory fsync) and returns the byte
// count and CRC32-IEEE of the contents. crashpointHook, when non-nil,
// fires after the temp write but before the rename — test-only, it
// simulates a process death mid-checkpoint.
func atomicWrite(dir, name string, write func(io.Writer) (int64, error)) (int64, uint32, error) {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return 0, 0, err
	}
	crc := crc32.NewIEEE()
	n, err := write(io.MultiWriter(f, crc))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return 0, 0, err
	}
	if crashpointHook != nil {
		crashpointHook(name)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return 0, 0, err
	}
	syncDir(dir)
	return n, crc.Sum32(), nil
}

// crashpointHook, when set by a test, runs between a shard's temp write
// and its rename — the widest window in which a kill leaves a torn
// checkpoint on disk.
var crashpointHook func(name string)

// The SVSIM_CKPT_CRASHPOINT failpoint kills the process (exit 42) just
// before the named file ("MANIFEST.json", "shard-0.svs", or "any")
// would be renamed into place. Torn-write tests re-exec themselves with
// it set to prove restore falls back to the previous valid checkpoint.
func init() {
	if target := os.Getenv("SVSIM_CKPT_CRASHPOINT"); target != "" {
		crashpointHook = func(name string) {
			if target == "any" || name == target {
				os.Exit(42)
			}
		}
	}
}

// syncDir fsyncs a directory so a rename into it survives a crash;
// best-effort (some filesystems reject directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck // best-effort durability
		d.Close()
	}
}

// ShardError reports a shard that failed validation on restore.
type ShardError struct {
	File   string
	Reason string
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("ckpt: shard %s: %s", e.File, e.Reason)
}

// ReadShard loads and validates one shard against its manifest entry:
// the file's CRC and size must match, and the state must carry
// wantQubits qubits (a PE's localBits). All failures are typed.
func ReadShard(dir string, sh Shard, wantQubits int) (*statevec.State, error) {
	f, err := os.Open(filepath.Join(dir, sh.File))
	if err != nil {
		return nil, fmt.Errorf("ckpt: opening shard: %w", err)
	}
	defer f.Close()
	crc := crc32.NewIEEE()
	cr := &countReader{r: io.TeeReader(f, crc)}
	st, err := statevec.ReadState(cr)
	if err != nil {
		return nil, &ShardError{File: sh.File, Reason: err.Error()}
	}
	// Drain any trailing bytes so size and CRC cover the whole file.
	if _, err := io.Copy(io.Discard, cr); err != nil {
		return nil, fmt.Errorf("ckpt: reading shard %s: %w", sh.File, err)
	}
	if cr.n != sh.Bytes {
		return nil, &ShardError{File: sh.File,
			Reason: fmt.Sprintf("size %d does not match manifest (%d bytes)", cr.n, sh.Bytes)}
	}
	if got := crc.Sum32(); got != sh.CRC32 {
		return nil, &ShardError{File: sh.File,
			Reason: fmt.Sprintf("CRC32 %08x does not match manifest (%08x)", got, sh.CRC32)}
	}
	if st.N != wantQubits {
		return nil, &ShardError{File: sh.File,
			Reason: fmt.Sprintf("shard holds %d qubits, partition needs %d", st.N, wantQubits)}
	}
	return st, nil
}

type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// WriteManifest atomically publishes the manifest into dir (temp file,
// fsync, rename, directory fsync), marking the checkpoint complete.
func WriteManifest(dir string, m *Manifest) error {
	m.Schema, m.Kind = Schema, KindFull
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, _, err = atomicWrite(dir, manifestName, func(w io.Writer) (int64, error) {
		n, werr := w.Write(data)
		return int64(n), werr
	})
	if err != nil {
		return fmt.Errorf("ckpt: publishing manifest: %w", err)
	}
	return nil
}

// ManifestError reports a manifest of a kind this build cannot restore:
// the incremental ("delta") checkpoints of older builds, or any kind
// other than KindFull.
type ManifestError struct {
	Dir    string
	Schema string
	Kind   string
}

func (e *ManifestError) Error() string {
	return fmt.Sprintf("ckpt: manifest in %s is %s kind %q; only %q checkpoints can be restored",
		e.Dir, e.Schema, e.Kind, KindFull)
}

// ReadManifest loads and sanity-checks the manifest of one checkpoint
// directory.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("ckpt: no manifest in %s: %w", dir, err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("ckpt: malformed manifest in %s: %w", dir, err)
	}
	switch m.Schema {
	case Schema:
	case SchemaV1:
		// v1 manifests are always full checkpoints and never recorded an
		// op count.
		m.Kind = KindFull
		m.OpsDone = -1
	default:
		return nil, fmt.Errorf("ckpt: manifest schema %q in %s, want %q", m.Schema, dir, Schema)
	}
	if m.Kind == "" {
		m.Kind = KindFull
	}
	if m.Kind != KindFull {
		return nil, &ManifestError{Dir: dir, Schema: m.Schema, Kind: m.Kind}
	}
	if len(m.Shards) != m.PEs {
		return nil, fmt.Errorf("ckpt: manifest in %s lists %d shards for %d PEs", dir, len(m.Shards), m.PEs)
	}
	for r, sh := range m.Shards {
		if sh.Rank != r {
			return nil, fmt.Errorf("ckpt: manifest in %s lists rank %d's shard at position %d", dir, sh.Rank, r)
		}
	}
	return &m, nil
}

// Resolve accepts either a specific ckpt-<step> directory or a
// checkpoint base directory (whose latest complete checkpoint is used)
// and returns the checkpoint directory with its manifest.
func Resolve(dir string) (string, *Manifest, error) {
	if m, err := ReadManifest(dir); err == nil {
		return dir, m, nil
	} else if _, serr := os.Stat(filepath.Join(dir, manifestName)); serr == nil {
		return "", nil, err // manifest exists but is unreadable/invalid
	}
	stepDir, m, ok, err := Latest(dir)
	if err != nil {
		return "", nil, err
	}
	if !ok {
		return "", nil, fmt.Errorf("ckpt: no complete checkpoint under %s", dir)
	}
	return stepDir, m, nil
}

// CompleteSteps lists the steps of every complete checkpoint (a
// ckpt-<step> directory with a manifest) under base, newest first. The
// descending order is the restore fallback order: when the latest
// checkpoint turns out to be unreadable or corrupt, the next older one
// is the candidate.
func CompleteSteps(base string) ([]int, error) {
	entries, err := os.ReadDir(base)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var steps []int
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "ckpt-") {
			continue
		}
		step, perr := strconv.Atoi(strings.TrimPrefix(e.Name(), "ckpt-"))
		if perr != nil {
			continue
		}
		if _, serr := os.Stat(filepath.Join(base, e.Name(), manifestName)); serr != nil {
			continue // incomplete: crashed mid-write
		}
		steps = append(steps, step)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(steps)))
	return steps, nil
}

// Latest finds the most recent complete checkpoint (highest step with a
// manifest) under base. ok is false when none exists.
func Latest(base string) (dir string, m *Manifest, ok bool, err error) {
	steps, err := CompleteSteps(base)
	if err != nil || len(steps) == 0 {
		return "", nil, false, err
	}
	dir = StepDir(base, steps[0])
	m, err = ReadManifest(dir)
	if err != nil {
		return "", nil, false, err
	}
	return dir, m, true, nil
}
