package ckpt

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/gate"
	"svsim/internal/qasmbench"
	"svsim/internal/statevec"
)

func mkState(t *testing.T, n int, seedVal float64) *statevec.State {
	t.Helper()
	st := statevec.New(n)
	for i := range st.Re {
		st.Re[i] = seedVal + float64(i)
		st.Im[i] = -seedVal - float64(i)
	}
	return st
}

func TestShardRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := mkState(t, 3, 0.5)
	sh, err := WriteShard(dir, 2, st)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Rank != 2 || sh.File != "shard-2.svs" || sh.Bytes <= 0 {
		t.Fatalf("shard entry = %+v", sh)
	}
	got, err := ReadShard(dir, sh, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxAbsDiff(st) != 0 {
		t.Fatal("round trip altered amplitudes")
	}
}

func TestReadShardValidation(t *testing.T) {
	dir := t.TempDir()
	st := mkState(t, 3, 1)
	sh, err := WriteShard(dir, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, sh.File)

	t.Run("bit flip fails CRC", func(t *testing.T) {
		data, _ := os.ReadFile(path)
		data[len(data)-1] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadShard(dir, sh, 3)
		var se *ShardError
		if !errors.As(err, &se) || !strings.Contains(se.Reason, "CRC32") {
			t.Fatalf("corrupted shard error = %v, want CRC mismatch", err)
		}
		data[len(data)-1] ^= 0x01 // restore for the next subtests
		os.WriteFile(path, data, 0o644)
	})

	t.Run("trailing garbage fails size", func(t *testing.T) {
		f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		f.Write([]byte{1, 2, 3})
		f.Close()
		_, err := ReadShard(dir, sh, 3)
		var se *ShardError
		if !errors.As(err, &se) || !strings.Contains(se.Reason, "size") {
			t.Fatalf("oversized shard error = %v, want size mismatch", err)
		}
	})

	t.Run("wrong qubit count", func(t *testing.T) {
		dir2 := t.TempDir()
		sh2, err := WriteShard(dir2, 0, st)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ReadShard(dir2, sh2, 5)
		var se *ShardError
		if !errors.As(err, &se) || !strings.Contains(se.Reason, "qubits") {
			t.Fatalf("qubit mismatch error = %v", err)
		}
	})

	t.Run("missing file", func(t *testing.T) {
		_, err := ReadShard(dir, Shard{File: "shard-9.svs"}, 3)
		if err == nil {
			t.Fatal("missing shard read succeeded")
		}
	})
}

func TestManifestLifecycleAndLatest(t *testing.T) {
	base := t.TempDir()

	if _, _, ok, err := Latest(base); err != nil || ok {
		t.Fatalf("empty base: ok=%v err=%v", ok, err)
	}
	if _, _, ok, err := Latest(filepath.Join(base, "nope")); err != nil || ok {
		t.Fatalf("missing base: ok=%v err=%v", ok, err)
	}

	write := func(step int, withManifest bool) {
		dir := StepDir(base, step)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		st := mkState(t, 2, float64(step))
		sh, err := WriteShard(dir, 0, st)
		if err != nil {
			t.Fatal(err)
		}
		if !withManifest {
			return
		}
		m := &Manifest{
			Backend: "scale-out", Circuit: "c", NumQubits: 2, PEs: 1,
			Sched: "lazy", Step: step, Seed: 7, Draws: 3, Cbits: 0b101,
			Perm: []int{1, 0}, Shards: []Shard{sh},
		}
		if err := WriteManifest(dir, m); err != nil {
			t.Fatal(err)
		}
	}
	write(4, true)
	write(16, true)
	write(32, false) // crashed mid-write: shards but no manifest

	dir, m, ok, err := Latest(base)
	if err != nil || !ok {
		t.Fatalf("Latest: ok=%v err=%v", ok, err)
	}
	if m.Step != 16 || dir != StepDir(base, 16) {
		t.Fatalf("Latest picked step %d (%s), want 16 (manifest-less 32 skipped)", m.Step, dir)
	}
	if m.Schema != Schema || m.Cbits != 0b101 || len(m.Perm) != 2 {
		t.Fatalf("manifest round trip = %+v", m)
	}
}

func TestReadManifestRejectsBadContents(t *testing.T) {
	dir := t.TempDir()
	write := func(s string) {
		if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ReadManifest(dir); err == nil || !strings.Contains(err.Error(), "no manifest") {
		t.Fatalf("missing manifest error = %v", err)
	}
	write("{nope")
	if _, err := ReadManifest(dir); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("malformed manifest error = %v", err)
	}
	write(`{"schema":"other/v9"}`)
	if _, err := ReadManifest(dir); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong-schema error = %v", err)
	}
	write(`{"schema":"svsim-ckpt/v1","pes":4,"shards":[]}`)
	if _, err := ReadManifest(dir); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("shard-count error = %v", err)
	}
	write(`{"schema":"svsim-ckpt/v2","pes":2,"shards":[{"rank":1},{"rank":0}]}`)
	if _, err := ReadManifest(dir); err == nil || !strings.Contains(err.Error(), "rank 1's shard at position 0") {
		t.Fatalf("shard-order error = %v", err)
	}
}

// TestReadManifestRejectsDeltaKind: an incremental ("delta") checkpoint
// written by an older build is refused with a typed error naming its
// schema and kind, never restored as if it were full.
func TestReadManifestRejectsDeltaKind(t *testing.T) {
	base := t.TempDir()
	dir := StepDir(base, 8)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	delta := `{"schema":"svsim-ckpt/v2","backend":"single","num_qubits":2,"pes":1,"step":8,` +
		`"kind":"delta","parent":4,"ops_done":8,"shards":[{"rank":0,"file":"shard-0.svs","bytes":52,"crc32":1}]}`
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), []byte(delta), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, read := range []func() error{
		func() error { _, err := ReadManifest(dir); return err },
		func() error { _, _, err := Resolve(dir); return err },
		func() error { _, _, err := Resolve(base); return err },
	} {
		err := read()
		var me *ManifestError
		if !errors.As(err, &me) || me.Schema != Schema || me.Kind != "delta" || me.Dir != dir {
			t.Fatalf("delta manifest error = %#v (%v), want *ManifestError{%s, %s, delta}", me, err, dir, Schema)
		}
		if !strings.Contains(err.Error(), Schema) || !strings.Contains(err.Error(), `"delta"`) {
			t.Fatalf("error %q does not name the schema and the kind", err)
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	build := func(theta float64) *circuit.Circuit {
		c := circuit.New("fp", 3)
		c.Append(gate.NewH(0), gate.NewCX(0, 1), gate.NewRZ(theta, 2))
		return c
	}
	a, b := Fingerprint(build(0.5)), Fingerprint(build(0.5))
	if a != b {
		t.Fatal("identical circuits hash differently")
	}
	if Fingerprint(build(0.5)) == Fingerprint(build(0.25)) {
		t.Fatal("parameter change not reflected in fingerprint")
	}
	c2 := circuit.New("fp", 3)
	c2.Append(gate.NewH(0), gate.NewCX(1, 0), gate.NewRZ(0.5, 2))
	if Fingerprint(build(0.5)) == Fingerprint(c2) {
		t.Fatal("operand swap not reflected in fingerprint")
	}
}

// TestFingerprintGolden pins Fingerprint to the values hash/fnv's New64a
// produced before the hash was inlined: manifests record it, so a
// checkpoint written by an older build must still resume.
func TestFingerprintGolden(t *testing.T) {
	c := circuit.New("golden", 5)
	c.NumClbits = 2
	c.H(0)
	c.CX(0, 1)
	c.U3(0.25, -1.5, 3.0, 2)
	c.Append(gate.NewCRZ(0.75, 3, 4))
	c.Append(gate.NewMeasure(1, 0))
	c.AppendCond(gate.NewX(2), circuit.Condition{Offset: 0, Width: 2, Value: 1})
	if got, want := Fingerprint(c), uint64(0x1bd361f22e233435); got != want {
		t.Fatalf("Fingerprint(golden) = %#016x, want %#016x", got, want)
	}
	e, err := qasmbench.ByName("qft_n15")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := Fingerprint(e.Build()), uint64(0x830354418b3c0190); got != want {
		t.Fatalf("Fingerprint(qft_n15) = %#016x, want %#016x", got, want)
	}
}

// TestTornManifestFallsBack re-execs the test binary with the
// SVSIM_CKPT_CRASHPOINT failpoint armed so the child process dies
// between writing the step-20 manifest's temp file and renaming it into
// place — a real mid-checkpoint kill. Restore must fall back to the
// previous complete checkpoint.
func TestTornManifestFallsBack(t *testing.T) {
	base := t.TempDir()
	if os.Getenv("SVSIM_TORN_HELPER") == "1" {
		st := statevec.New(2)
		helperCkpt(base, 10, st) // completes: crashpoint arms only in the child
		return
	}

	// Parent: first write a complete checkpoint at step 10 ourselves,
	// then have the child die mid-manifest at step 20.
	st := mkState(t, 2, 9)
	dir10 := StepDir(base, 10)
	os.MkdirAll(dir10, 0o755)
	sh, err := WriteShard(dir10, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(dir10, &Manifest{Backend: "single", Circuit: "t",
		NumQubits: 2, PEs: 1, Sched: "lazy", Step: 10, Shards: []Shard{sh}}); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(os.Args[0], "-test.run", "TestTornManifestFallsBack")
	cmd.Env = append(os.Environ(),
		"SVSIM_TORN_HELPER=1",
		"SVSIM_TORN_BASE="+base,
		"SVSIM_CKPT_CRASHPOINT="+manifestName)
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 42 {
		t.Fatalf("helper did not die at the crashpoint: err=%v out=%s", err, out)
	}

	// The torn step-20 checkpoint must be invisible: temp manifest on
	// disk, no real one, Latest falls back to step 10.
	dir20 := StepDir(base, 20)
	if _, err := os.Stat(filepath.Join(dir20, manifestName)); !os.IsNotExist(err) {
		t.Fatalf("torn checkpoint has a real manifest (stat err=%v)", err)
	}
	dir, m, ok, err := Latest(base)
	if err != nil || !ok {
		t.Fatalf("Latest after torn write: ok=%v err=%v", ok, err)
	}
	if m.Step != 10 || dir != dir10 {
		t.Fatalf("fell back to step %d, want 10", m.Step)
	}
	got, err := ReadShard(dir, m.Shards[0], 2)
	if err != nil || got.MaxAbsDiff(st) != 0 {
		t.Fatalf("fallback checkpoint unreadable: %v", err)
	}
}

// helperCkpt runs in the torn-write child: it writes a step-20
// checkpoint whose manifest rename is interrupted by the crashpoint.
func helperCkpt(parentBase string, step int, st *statevec.State) {
	base := os.Getenv("SVSIM_TORN_BASE")
	if base == "" {
		base = parentBase
	}
	dir := StepDir(base, 20)
	os.MkdirAll(dir, 0o755)
	sh, err := WriteShard(dir, 0, st)
	if err != nil {
		os.Exit(3)
	}
	// The crashpoint fires inside WriteManifest, before the rename.
	WriteManifest(dir, &Manifest{Backend: "single", Circuit: "t",
		NumQubits: 2, PEs: 1, Sched: "lazy", Step: 20, Shards: []Shard{sh}})
	os.Exit(0) // unreachable when the crashpoint is armed
}
