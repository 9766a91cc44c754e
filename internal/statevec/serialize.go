package statevec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// State serialization: a small checkpoint format so long simulations (the
// paper's multi-million-gate VQE circuits) can be snapshotted and
// resumed, and so states can be exchanged between tools.
//
// Layout (little endian): magic "SVSTATE1", uint32 qubit count, then
// 2*2^n float64 values (all real parts, then all imaginary parts).

var stateMagic = [8]byte{'S', 'V', 'S', 'T', 'A', 'T', 'E', '1'}

// Typed deserialization failures, matchable with errors.Is.
var (
	// ErrBadMagic means the input does not start with the format magic.
	ErrBadMagic = errors.New("statevec: bad magic")
	// ErrBadHeader means the header is short or carries an impossible
	// qubit count.
	ErrBadHeader = errors.New("statevec: bad header")
	// ErrTruncated means the input ended before all amplitudes arrived.
	ErrTruncated = errors.New("statevec: truncated state")
)

// readChunkFloats bounds each amplitude read so a truncated stream whose
// header claims a huge qubit count fails after allocating roughly what
// the stream actually delivered, not the 2^n the header promised.
const readChunkFloats = 32768

// writeChunk is how many encoded bytes a chunkWriter hands its writer at
// a time.
const writeChunk = 64 << 10

// chunks recycles chunkWriter buffers, so a steady stream of shard writes
// allocates nothing.
var chunks = sync.Pool{New: func() any { return new([writeChunk]byte) }}

// chunkWriter encodes little-endian words into one pooled 64 KiB chunk
// and writes the chunk each time it fills: one Write per chunk instead of
// one binary.Write (a reflective encode and an allocation) per word. The
// first write error latches and turns every later call into a no-op;
// Close reports it with the byte count written.
type chunkWriter struct {
	w   io.Writer
	buf *[writeChunk]byte
	off int
	n   int64
	err error
}

// newChunkWriter starts encoding into w; the caller must Close it.
func newChunkWriter(w io.Writer) *chunkWriter {
	return &chunkWriter{w: w, buf: chunks.Get().(*[writeChunk]byte)}
}

// next reserves k bytes of the chunk, writing the chunk out first when
// they do not fit.
func (c *chunkWriter) next(k int) []byte {
	if c.off+k > writeChunk {
		c.flush()
	}
	c.off += k
	return c.buf[c.off-k : c.off]
}

func (c *chunkWriter) flush() {
	if c.err == nil && c.off > 0 {
		var m int
		m, c.err = c.w.Write(c.buf[:c.off])
		c.n += int64(m)
	}
	c.off = 0
}

// Bytes encodes b verbatim (a header field no longer than a chunk).
func (c *chunkWriter) Bytes(b []byte) { copy(c.next(len(b)), b) }

// U32 encodes v.
func (c *chunkWriter) U32(v uint32) { binary.LittleEndian.PutUint32(c.next(4), v) }

// Floats encodes the IEEE-754 bits of every value of vals.
func (c *chunkWriter) Floats(vals []float64) {
	for len(vals) > 0 {
		k := min(len(vals), (writeChunk-c.off)/8)
		if k == 0 {
			c.flush()
			continue
		}
		b := c.next(8 * k)
		for i, v := range vals[:k] {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		vals = vals[k:]
	}
}

// Close writes what the chunk holds, returns the chunk to the pool and
// reports the bytes written and the first error.
func (c *chunkWriter) Close() (int64, error) {
	c.flush()
	chunks.Put(c.buf)
	c.buf = nil
	return c.n, c.err
}

// WriteTo serializes the state. It returns the byte count written.
func (s *State) WriteTo(w io.Writer) (int64, error) {
	c := newChunkWriter(w)
	c.Bytes(stateMagic[:])
	c.U32(uint32(s.N))
	c.Floats(s.Re)
	c.Floats(s.Im)
	return c.Close()
}

// ReadState deserializes a state written by WriteTo. Failures are typed:
// ErrBadMagic, ErrBadHeader (short header or impossible qubit count), or
// ErrTruncated (amplitudes missing). Amplitudes are read in bounded
// chunks with append-style growth, so a truncated file whose header
// claims 30 qubits costs memory proportional to the bytes actually
// present, not the 16 GiB the header promises.
func ReadState(r io.Reader) (*State, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrBadHeader, err)
	}
	if magic != stateMagic {
		return nil, fmt.Errorf("%w %q", ErrBadMagic, magic)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: reading qubit count: %v", ErrBadHeader, err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 1 || n > MaxQubits {
		return nil, fmt.Errorf("%w: qubit count %d out of range [1,%d]", ErrBadHeader, n, MaxQubits)
	}
	dim := 1 << uint(n)
	var parts [2][]float64
	chunk := make([]byte, minInt(dim, readChunkFloats)*8)
	for pi := range parts {
		vals := make([]float64, 0, minInt(dim, readChunkFloats))
		for remaining := dim; remaining > 0; {
			k := minInt(remaining, readChunkFloats)
			b := chunk[:k*8]
			if _, err := io.ReadFull(br, b); err != nil {
				return nil, fmt.Errorf("%w: reading amplitudes: %v", ErrTruncated, err)
			}
			for i := 0; i < k; i++ {
				vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:])))
			}
			remaining -= k
		}
		parts[pi] = vals
	}
	return &State{N: int(n), Dim: dim, Re: parts[0], Im: parts[1]}, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
