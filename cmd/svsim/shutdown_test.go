package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"svsim/internal/ckpt"
	"svsim/internal/obs"
)

// buildSvsim compiles the CLI once per test into a temp dir.
func buildSvsim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "svsim")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// deepQASM writes a long-running but trivial workload: enough gate
// sweeps over a 2^16 state that the run survives until the signal
// lands, with plenty of checkpoint boundaries after it.
func deepQASM(t *testing.T, gates int) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[16];\ncreg c[1];\n")
	for i := 0; i < gates; i++ {
		fmt.Fprintf(&b, "h q[%d];\n", i%16)
	}
	f := filepath.Join(t.TempDir(), "deep.qasm")
	if err := os.WriteFile(f, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestGracefulShutdownE2E is the end-to-end signal contract: SIGTERM
// mid-run makes the process write a final checkpoint, flush every
// observability artifact into -obs-dir, and exit 130; a follow-up
// -resume run completes from that checkpoint.
func TestGracefulShutdownE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals a child process")
	}
	bin := buildSvsim(t)
	qasm := deepQASM(t, 4000)
	dir := filepath.Join(t.TempDir(), "ckpt")
	obsDir := filepath.Join(t.TempDir(), "obs")

	cmd := exec.Command(bin,
		"-qasm", qasm, "-backend", "scale-out", "-pes", "2",
		"-checkpoint-every", "25", "-checkpoint-dir", dir,
		"-checkpoint-full-every", "4",
		"-obs-dir", obsDir)
	var out strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Give the run time to install its handler and pass a few
	// checkpoint boundaries, then request a graceful stop.
	time.Sleep(500 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("run finished before the signal landed (err=%v); output:\n%s", err, out.String())
	}
	if code := ee.ExitCode(); code != 130 {
		t.Fatalf("want exit 130, got %d; output:\n%s", code, out.String())
	}
	if _, _, ok, _ := ckpt.Latest(dir); !ok {
		t.Fatalf("interrupted run left no complete checkpoint; output:\n%s", out.String())
	}
	for _, f := range []string{obs.TraceFile, obs.MetricsFile, obs.PhasesFile, obs.FlightFile} {
		if fi, err := os.Stat(filepath.Join(obsDir, f)); err != nil || fi.Size() == 0 {
			t.Fatalf("%s not flushed on interrupt (err=%v); output:\n%s", f, err, out.String())
		}
	}
	if ents, err := os.ReadDir(obsDir); err != nil || len(ents) != 4 {
		t.Fatalf("-obs-dir holds %d entries (err=%v), want the 4 artifacts", len(ents), err)
	}
	flight, err := os.ReadFile(filepath.Join(obsDir, obs.FlightFile))
	if err != nil || !strings.Contains(string(flight), `"kind":"`+obs.EventInterrupted+`"`) {
		t.Fatalf("flight trail does not record the interrupt (err=%v):\n%s", err, flight)
	}

	resume := exec.Command(bin,
		"-qasm", qasm, "-backend", "scale-out", "-pes", "2", "-resume", dir)
	rout, err := resume.CombinedOutput()
	if err != nil {
		t.Fatalf("resume after interrupt: %v\n%s", err, rout)
	}
}
