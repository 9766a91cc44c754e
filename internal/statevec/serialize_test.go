package statevec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"svsim/internal/gate"
)

func TestStateSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 4, 9} {
		s := randomState(rng, n, Scalar)
		var buf bytes.Buffer
		wrote, err := s.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes := int64(8 + 4 + 2*8*s.Dim)
		if wrote != wantBytes {
			t.Fatalf("n=%d: wrote %d bytes, want %d", n, wrote, wantBytes)
		}
		back, err := ReadState(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.N != n {
			t.Fatalf("qubits: %d", back.N)
		}
		if d := s.MaxAbsDiff(back); d != 0 {
			t.Fatalf("n=%d: roundtrip changed state by %g", n, d)
		}
	}
}

// TestWriteToBytesAndAllocs pins the encoding to the format's reference,
// binary.Write of each field, across chunk boundaries — n = 13 fills a
// part of exactly one chunk, behind the 12-byte header — and checks a
// write allocates nothing per amplitude.
func TestWriteToBytesAndAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 12, 13, 14} {
		s := randomState(rng, n, Scalar)
		var want bytes.Buffer
		binary.Write(&want, binary.LittleEndian, stateMagic)  //nolint:errcheck
		binary.Write(&want, binary.LittleEndian, uint32(s.N)) //nolint:errcheck
		binary.Write(&want, binary.LittleEndian, s.Re)        //nolint:errcheck
		binary.Write(&want, binary.LittleEndian, s.Im)        //nolint:errcheck
		var got bytes.Buffer
		if _, err := s.WriteTo(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("n=%d: WriteTo bytes differ from the reference encoding", n)
		}
		if a := testing.AllocsPerRun(5, func() { s.WriteTo(io.Discard) }); a > 1 { //nolint:errcheck
			t.Fatalf("n=%d: %.0f allocations per write, want at most 1", n, a)
		}
	}
}

func TestReadStateRejectsGarbage(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
		is   error
	}{
		{"empty", "", "header", ErrBadHeader},
		{"wrong magic", "NOTMAGIC____", "bad magic", ErrBadMagic},
		{"short magic", "SVST", "header", ErrBadHeader},
		{"short qubit count", "SVSTATE1\x02\x00", "qubit count", ErrBadHeader},
		{"zero qubits", "SVSTATE1\x00\x00\x00\x00", "out of range", ErrBadHeader},
		{"huge qubit count", "SVSTATE1\xff\xff\xff\xff", "out of range", ErrBadHeader},
		{"truncated amplitudes", "SVSTATE1\x02\x00\x00\x00shor", "amplitudes", ErrTruncated},
		{"no amplitudes", "SVSTATE1\x03\x00\x00\x00", "amplitudes", ErrTruncated},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadState(strings.NewReader(c.data))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("data %q: error %v, want mention of %q", c.data, err, c.want)
			}
			if !errors.Is(err, c.is) {
				t.Fatalf("data %q: error %v is not %v", c.data, err, c.is)
			}
		})
	}
}

// TestReadStateTruncatedClaimIsNotAnAllocationBomb feeds a header that
// claims the 30-qubit maximum (16 GiB of amplitudes) followed by almost
// no data. The reader must fail with ErrTruncated after allocating
// memory proportional to the bytes present, not the claimed dimension.
func TestReadStateTruncatedClaimIsNotAnAllocationBomb(t *testing.T) {
	data := append([]byte("SVSTATE1"), 30, 0, 0, 0)
	data = append(data, make([]byte, 4096)...) // a token amount of payload
	before := allocatedBytes()
	_, err := ReadState(bytes.NewReader(data))
	grew := allocatedBytes() - before
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
	// Chunked reading bounds the growth to a few chunk buffers; 64 MiB of
	// headroom is generous while 16 GiB would blow far past it.
	if grew > 64<<20 {
		t.Fatalf("reader allocated %d bytes for a truncated 30-qubit claim", grew)
	}
}

func allocatedBytes() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.TotalAlloc)
}

func TestSerializedStateResumesSimulation(t *testing.T) {
	// Checkpoint mid-circuit, resume, and compare to an uninterrupted run.
	rng := rand.New(rand.NewSource(2))
	full := randomState(rng, 6, Scalar)
	resumed := full.Clone()

	full.ApplyH(0)
	full.ApplyCX(0, 5)
	full.ApplyT(3)

	resumed.ApplyH(0)
	var buf bytes.Buffer
	if _, err := resumed.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored.ApplyCX(0, 5)
	restored.ApplyT(3)
	if d := full.MaxAbsDiff(restored); d != 0 {
		t.Fatalf("resumed simulation deviates by %g", d)
	}
}

func TestPoolMatchesSerialOnAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pool := NewPool(3)
	defer pool.Close()
	for _, k := range kernelKinds() {
		for trial := 0; trial < 3; trial++ {
			n := 6
			ops := sampleOperands(rng, k, n)
			g := gate.New(k, ops, randAngles(rng, k.NumParams())...)
			serial := randomState(rng, n, Scalar)
			shared := serial.Clone()
			serial.Apply(&g)
			pool.ApplyShared(shared, &g)
			if d := serial.MaxAbsDiff(shared); d > 1e-11 {
				t.Fatalf("kind %s: pool deviates by %g", k, d)
			}
		}
	}
}

func TestMarginalProbs(t *testing.T) {
	s := New(3)
	s.ApplyH(0)
	s.ApplyCX(0, 2) // q0 and q2 correlated, q1 = |0>
	m := s.MarginalProbs([]int{0, 2})
	if len(m) != 4 {
		t.Fatalf("marginal size %d", len(m))
	}
	if m[0b00] < 0.499 || m[0b11] < 0.499 || m[0b01] > 1e-12 || m[0b10] > 1e-12 {
		t.Fatalf("marginal over correlated pair: %v", m)
	}
	single := s.MarginalProbs([]int{1})
	if single[0] < 0.999 {
		t.Fatalf("q1 marginal: %v", single)
	}
	// Marginals must sum to 1.
	var sum float64
	for _, p := range s.MarginalProbs([]int{2, 1, 0}) {
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("full marginal sums to %g", sum)
	}
}
