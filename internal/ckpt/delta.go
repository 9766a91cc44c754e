package ckpt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"svsim/internal/statevec"
)

// Incremental (delta) checkpoints: instead of serializing a PE's whole
// partition, a delta shard carries only the tiles of the amplitude
// arrays dirtied since the parent checkpoint. The Dirty tracker is the
// executor-side bookkeeping — executors mark what each schedule step
// touched (all tiles for a remap exchange or an unconditional dense
// gate, the control-satisfying subset for a controlled gate) — and the
// shard format below is its on-disk image. Restore walks the manifest
// Parent chain back to the nearest full checkpoint and replays deltas
// forward.

// DeltaTileBits is the default tile granularity of dirty tracking:
// amplitudes per tile = 1 << DeltaTileBits (4096 amplitudes = 64 KiB
// of SoA float64 data per tile, re+im).
const DeltaTileBits = 12

// deltaMagic heads every delta shard file.
var deltaMagic = [8]byte{'S', 'V', 'S', 'D', 'E', 'L', 'T', '1'}

// Dirty tracks which tiles of one PE's partition were modified since
// the last checkpoint. The zero value is unusable; make one with
// NewDirty. Not safe for concurrent use: each PE owns its tracker.
type Dirty struct {
	tileBits int
	numTiles int
	dim      int
	bits     []uint64
	all      bool
}

// NewDirty creates a tracker for a partition of dim amplitudes split
// into 1<<tileBits amplitude tiles (tileBits is clamped so at least one
// tile exists). A fresh tracker is fully dirty: the first checkpoint
// after creation captures everything.
func NewDirty(dim, tileBits int) *Dirty {
	if tileBits <= 0 {
		tileBits = DeltaTileBits
	}
	for dim>>uint(tileBits) == 0 {
		tileBits--
	}
	nt := dim >> uint(tileBits)
	return &Dirty{
		tileBits: tileBits,
		numTiles: nt,
		dim:      dim,
		bits:     make([]uint64, (nt+63)/64),
		all:      true,
	}
}

// TileBits returns the tracker's tile size exponent.
func (d *Dirty) TileBits() int { return d.tileBits }

// MarkAll marks the whole partition dirty (remap exchanges,
// measurements, unconditional dense gates).
func (d *Dirty) MarkAll() { d.all = true }

// MarkCtrls marks the tiles a gate with local physical control mask
// cmask can touch: only amplitudes whose index satisfies every control
// bit are written, so tiles whose above-tile index bits violate a
// control stay clean. A zero mask marks everything.
func (d *Dirty) MarkCtrls(cmask int) {
	if d.all {
		return
	}
	hi := cmask &^ (1<<uint(d.tileBits) - 1)
	if hi == 0 {
		d.all = true
		return
	}
	thi := hi >> uint(d.tileBits)
	for t := 0; t < d.numTiles; t++ {
		if t&thi == thi {
			d.bits[t/64] |= 1 << uint(t%64)
		}
	}
}

// MarkTile marks one tile dirty.
func (d *Dirty) MarkTile(t int) {
	if t >= 0 && t < d.numTiles {
		d.bits[t/64] |= 1 << uint(t%64)
	}
}

// MarkRange marks every tile overlapping the amplitude range [lo, hi).
func (d *Dirty) MarkRange(lo, hi int) {
	if hi > d.dim {
		hi = d.dim
	}
	for t := lo >> uint(d.tileBits); t<<uint(d.tileBits) < hi; t++ {
		d.MarkTile(t)
	}
}

// Any reports whether anything is dirty.
func (d *Dirty) Any() bool {
	if d.all {
		return true
	}
	for _, w := range d.bits {
		if w != 0 {
			return true
		}
	}
	return false
}

// Clear resets the tracker to fully clean (called after a checkpoint
// captured the dirty set).
func (d *Dirty) Clear() {
	d.all = false
	for i := range d.bits {
		d.bits[i] = 0
	}
}

// Tiles returns the dirty tile indices in ascending order.
func (d *Dirty) Tiles() []int { return d.appendTiles(nil) }

func (d *Dirty) appendTiles(out []int) []int {
	for t := 0; t < d.numTiles; t++ {
		if d.all || d.bits[t/64]>>uint(t%64)&1 == 1 {
			out = append(out, t)
		}
	}
	return out
}

// Count returns how many tiles are dirty.
func (d *Dirty) Count() int {
	if d.all {
		return d.numTiles
	}
	n := 0
	for t := 0; t < d.numTiles; t++ {
		if d.bits[t/64]>>uint(t%64)&1 == 1 {
			n++
		}
	}
	return n
}

// Payload is the snapshot one PE hands to the background checkpoint
// writer: either the whole partition (Tiles nil — a full shard) or the
// packed dirty tiles (a delta shard). Capturing one is pure memcpy;
// serialization happens later, off the compute path. A payload is reused
// from one checkpoint to the next: a capture overwrites its buffers, so
// the previous write must have finished with them.
type Payload struct {
	Qubits   int   // partition qubit count (localBits)
	TileBits int   // tile size exponent; meaningless when Tiles is nil
	Tiles    []int // dirty tile indices; nil => full partition snapshot
	Re, Im   []float64

	tiles []int // index storage the delta captures reuse
}

// CaptureFull copies st into a new full-shard payload.
func CaptureFull(st *statevec.State) *Payload { return new(Payload).Capture(st) }

// Capture copies st's whole partition into p, a full-shard payload, and
// returns p. The buffers are allocated on p's first capture and reused.
func (p *Payload) Capture(st *statevec.State) *Payload {
	p.Qubits, p.TileBits, p.Tiles = st.N, 0, nil
	p.Re, p.Im = resize(p.Re, st.Dim), resize(p.Im, st.Dim)
	copy(p.Re, st.Re)
	copy(p.Im, st.Im)
	return p
}

// CaptureTiles packs the dirty tiles of st into the prefix of p's
// buffers, a delta payload, clears the tracker and returns p. A
// fully-dirty tracker still captures a delta (every tile, with index
// overhead) — the full/delta decision is the caller's, made
// fleet-uniformly.
func (p *Payload) CaptureTiles(st *statevec.State, d *Dirty) *Payload {
	if p.tiles == nil {
		p.tiles = make([]int, 0, d.numTiles)
	}
	p.tiles = d.appendTiles(p.tiles[:0])
	tdim := 1 << uint(d.tileBits)
	p.Qubits, p.TileBits, p.Tiles = st.N, d.tileBits, p.tiles
	p.Re, p.Im = resize(p.Re, len(p.Tiles)*tdim), resize(p.Im, len(p.Tiles)*tdim)
	for i, t := range p.Tiles {
		lo := t << uint(d.tileBits)
		copy(p.Re[i*tdim:(i+1)*tdim], st.Re[lo:lo+tdim])
		copy(p.Im[i*tdim:(i+1)*tdim], st.Im[lo:lo+tdim])
	}
	d.Clear()
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
// shard (full statevec format when p.Tiles is nil, delta format
// otherwise), crash-atomically, and returns its manifest entry.
func WritePayloadShard(dir string, rank int, p *Payload) (Shard, error) {
	name := ShardFile(rank)
	write := func(w io.Writer) (int64, error) { return writeDelta(w, p) }
	if p.Tiles == nil {
		st := &statevec.State{N: p.Qubits, Dim: len(p.Re), Re: p.Re, Im: p.Im}
		write = st.WriteTo
	}
	n, crc, err := atomicWrite(dir, name, write)
	if err != nil {
		return Shard{}, fmt.Errorf("ckpt: writing shard %d: %w", rank, err)
	}
	return Shard{Rank: rank, File: name, Bytes: n, CRC32: crc}, nil
}

// writeDelta serializes a delta payload: magic, qubit count, tile size
// exponent, tile count, then per tile the index and its re/im data.
func writeDelta(w io.Writer, p *Payload) (int64, error) {
	c := statevec.NewChunkWriter(w)
	c.Bytes(deltaMagic[:])
	c.U32(uint32(p.Qubits))
	c.U32(uint32(p.TileBits))
	c.U32(uint32(len(p.Tiles)))
	tdim := 1 << uint(p.TileBits)
	for i, t := range p.Tiles {
		c.U64(uint64(t))
		c.Floats(p.Re[i*tdim : (i+1)*tdim])
		c.Floats(p.Im[i*tdim : (i+1)*tdim])
	}
	return c.Close()
}

// ApplyDeltaShard loads one delta shard, validates it against its
// manifest entry (CRC, size, qubit count), and applies its tiles onto
// st in place. All failures are typed ShardErrors or I/O errors.
func ApplyDeltaShard(dir string, sh Shard, st *statevec.State) error {
	f, err := os.Open(filepath.Join(dir, sh.File))
	if err != nil {
		return fmt.Errorf("ckpt: opening shard: %w", err)
	}
	defer f.Close()
	crc := crc32.NewIEEE()
	cr := &countReader{r: io.TeeReader(f, crc)}
	if err := readDeltaInto(cr, sh, st); err != nil {
		return err
	}
	if _, err := io.Copy(io.Discard, cr); err != nil {
		return fmt.Errorf("ckpt: reading shard %s: %w", sh.File, err)
	}
	if cr.n != sh.Bytes {
		return &ShardError{File: sh.File,
			Reason: fmt.Sprintf("size %d does not match manifest (%d bytes)", cr.n, sh.Bytes)}
	}
	if got := crc.Sum32(); got != sh.CRC32 {
		return &ShardError{File: sh.File,
			Reason: fmt.Sprintf("CRC32 %08x does not match manifest (%08x)", got, sh.CRC32)}
	}
	return nil
}

func readDeltaInto(r io.Reader, sh Shard, st *statevec.State) error {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return &ShardError{File: sh.File, Reason: "short delta header: " + err.Error()}
	}
	if magic != deltaMagic {
		return &ShardError{File: sh.File, Reason: fmt.Sprintf("bad delta magic %q", magic)}
	}
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return &ShardError{File: sh.File, Reason: "short delta header: " + err.Error()}
	}
	qubits := int(binary.LittleEndian.Uint32(hdr[0:]))
	tileBits := int(binary.LittleEndian.Uint32(hdr[4:]))
	count := int(binary.LittleEndian.Uint32(hdr[8:]))
	if qubits != st.N {
		return &ShardError{File: sh.File,
			Reason: fmt.Sprintf("delta holds %d qubits, partition needs %d", qubits, st.N)}
	}
	if tileBits < 0 || tileBits > 30 || 1<<uint(tileBits) > st.Dim {
		return &ShardError{File: sh.File, Reason: fmt.Sprintf("impossible tile size 2^%d", tileBits)}
	}
	tdim := 1 << uint(tileBits)
	numTiles := st.Dim >> uint(tileBits)
	if count < 0 || count > numTiles {
		return &ShardError{File: sh.File, Reason: fmt.Sprintf("tile count %d out of range", count)}
	}
	buf := make([]byte, 8+16*tdim)
	for i := 0; i < count; i++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return &ShardError{File: sh.File, Reason: "truncated delta tile: " + err.Error()}
		}
		tile := int(binary.LittleEndian.Uint64(buf))
		if tile < 0 || tile >= numTiles {
			return &ShardError{File: sh.File, Reason: fmt.Sprintf("tile index %d out of range", tile)}
		}
		lo := tile << uint(tileBits)
		for j := 0; j < tdim; j++ {
			st.Re[lo+j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8+8*j:]))
		}
		off := 8 + 8*tdim
		for j := 0; j < tdim; j++ {
			st.Im[lo+j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off+8*j:]))
		}
	}
	return nil
}

// ChainLink is one checkpoint in a restore chain, oldest (the full
// checkpoint) first.
type ChainLink struct {
	Dir      string
	Manifest *Manifest
}

// Chain resolves the restore chain of a checkpoint: the checkpoint
// itself when it is full, otherwise its Parent links walked back to the
// nearest full checkpoint, returned oldest-first. Every link is
// validated to describe the same run shape (PEs, qubits, circuit).
func Chain(dir string, m *Manifest) ([]ChainLink, error) {
	links := []ChainLink{{Dir: dir, Manifest: m}}
	base := filepath.Dir(dir)
	cur := m
	curDir := dir
	for cur.Kind == KindDelta {
		if cur.Parent >= cur.Step {
			return nil, fmt.Errorf("ckpt: delta in %s names parent step %d >= its own step %d", curDir, cur.Parent, cur.Step)
		}
		pdir := StepDir(base, cur.Parent)
		pm, err := ReadManifest(pdir)
		if err != nil {
			return nil, fmt.Errorf("ckpt: broken delta chain: %w", err)
		}
		if pm.PEs != m.PEs || pm.NumQubits != m.NumQubits || pm.CircuitHash != m.CircuitHash {
			return nil, fmt.Errorf("ckpt: delta chain parent %s describes a different run", pdir)
		}
		links = append(links, ChainLink{Dir: pdir, Manifest: pm})
		cur, curDir = pm, pdir
	}
	// Reverse to oldest-first application order.
	for i, j := 0, len(links)-1; i < j; i, j = i+1, j-1 {
		links[i], links[j] = links[j], links[i]
	}
	return links, nil
}

// RestoreShardChain materializes one rank's partition from a restore
// chain: the full shard first, then each delta applied in order.
func RestoreShardChain(links []ChainLink, rank, wantQubits int) (*statevec.State, error) {
	if len(links) == 0 {
		return nil, errors.New("ckpt: empty restore chain")
	}
	first := links[0]
	if first.Manifest.Kind != KindFull {
		return nil, fmt.Errorf("ckpt: restore chain does not start at a full checkpoint (%s)", first.Dir)
	}
	st, err := ReadShard(first.Dir, shardOf(first.Manifest, rank), wantQubits)
	if err != nil {
		return nil, err
	}
	for _, link := range links[1:] {
		if err := ApplyDeltaShard(link.Dir, shardOf(link.Manifest, rank), st); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// shardOf finds rank's manifest entry (shards are written in rank order
// but the scan keeps restore robust to reordered manifests).
func shardOf(m *Manifest, rank int) Shard {
	for _, sh := range m.Shards {
		if sh.Rank == rank {
			return sh
		}
	}
	return Shard{Rank: rank, File: ShardFile(rank)}
}
