package svsim_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"svsim/internal/obs"
)

// End-to-end smoke tests: build the real binaries and drive them the way
// a user would. Skipped under -short.

func buildTool(t *testing.T, dir, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func runTool(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	return string(out)
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e skipped in -short mode")
	}
	dir := t.TempDir()
	svsim := buildTool(t, dir, "svsim/cmd/svsim")
	svbench := buildTool(t, dir, "svsim/cmd/svbench")
	qasmdump := buildTool(t, dir, "svsim/cmd/qasmdump")

	// svsim: named circuit on every backend.
	out := runTool(t, svsim, "-circuit", "ghz_state", "-shots", "4")
	if !strings.Contains(out, "ghz_state") || !strings.Contains(out, "samples") {
		t.Fatalf("svsim output:\n%s", out)
	}
	out = runTool(t, svsim, "-circuit", "bv_n14", "-backend", "scale-out", "-pes", "4", "-coalesced")
	if !strings.Contains(out, "scale-out (4 PE)") || !strings.Contains(out, "remote") {
		t.Fatalf("svsim scale-out output:\n%s", out)
	}
	out = runTool(t, svsim, "-circuit", "cc_n12", "-backend", "mpi", "-pes", "4")
	if !strings.Contains(out, "backend : mpi (4 PE)") || !strings.Contains(out, "mpi     : msgs=") {
		t.Fatalf("svsim mpi output:\n%s", out)
	}
	// The remap baseline is the mpi row under the lazy plan: -sched
	// reaches it like every other backend (its first remap precedes every
	// gate, so the run folds it; the other is three pairwise rounds).
	out = runTool(t, svsim, "-circuit", "qft_n15", "-backend", "mpi", "-pes", "4", "-sched", "lazy")
	if !strings.Contains(out, "mpi     : msgs=12 bytes=393216 ") || !strings.Contains(out, " syncs=0") {
		t.Fatalf("svsim mpi -sched lazy output:\n%s", out)
	}
	out = runTool(t, svsim, "-list")
	if !strings.Contains(out, "qft_n15") {
		t.Fatalf("svsim -list output:\n%s", out)
	}

	// svsim: a QASM file end to end.
	qasmFile := filepath.Join(dir, "bell.qasm")
	src := "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q -> c;\n"
	if err := os.WriteFile(qasmFile, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out = runTool(t, svsim, "-qasm", qasmFile, "-state")
	if !strings.Contains(out, "cbits") {
		t.Fatalf("svsim qasm output:\n%s", out)
	}

	// qasmdump: parse, expand, dump, and re-consume its own dump.
	out = runTool(t, qasmdump, "-circuit", "qft_n15", "-expand")
	if !strings.Contains(out, "gates   : 540") {
		t.Fatalf("qasmdump output:\n%s", out)
	}
	dumped := runTool(t, qasmdump, "-dump", "-stats=false", qasmFile)
	idx := strings.Index(dumped, "OPENQASM")
	if idx < 0 {
		t.Fatalf("qasmdump -dump output:\n%s", dumped)
	}
	redump := filepath.Join(dir, "re.qasm")
	if err := os.WriteFile(redump, []byte(dumped[idx:]), 0o644); err != nil {
		t.Fatal(err)
	}
	runTool(t, svsim, "-qasm", redump)

	// svbench: a quick modeled experiment.
	out = runTool(t, svbench, "-exp", "fig17")
	if !strings.Contains(out, "fig17") || !strings.Contains(out, "24") {
		t.Fatalf("svbench output:\n%s", out)
	}
}

// TestTelemetryArtifacts drives the full telemetry surface end to end,
// on both exits. A clean run must leave exactly the -obs-dir artifact
// set — a trace, an OpenMetrics dump, a phase report and a flight
// JSONL; a run aborted by an injected kill must leave the same set
// rather than losing it — with the flight trail naming the fault and
// the phase report's per-PE rows summing to the wall time they split.
// svsim -shots samples every shot's own collapse: `h; measure; if(c==1)
// x` reads cbits 00 and 01 near 500 times each in 1,000 shots (within 4
// sigma) on seeds 1-3, where sampling one run's final state would read
// one of them 1,000 times.
func TestCLIShotsArePerShot(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e skipped in -short mode")
	}
	dir := t.TempDir()
	svsim := buildTool(t, dir, "svsim/cmd/svsim")
	prog := filepath.Join(dir, "ff.qasm")
	src := "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nh q[0];\nmeasure q[0] -> c[0];\nif(c==1) x q[1];\n"
	if err := os.WriteFile(prog, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	const shots = 1000
	for _, seed := range []string{"1", "2", "3"} {
		out := runTool(t, svsim, "-qasm", prog, "-shots", strconv.Itoa(shots), "-seed", seed)
		counts := map[string]int{}
		for _, line := range strings.Split(out, "\n") {
			var key string
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(line), "|%2s>  %d", &key, &n); err == nil {
				counts[key] = n
			}
		}
		if d := math.Abs(float64(counts["00"]) - shots/2); d > 4*math.Sqrt(shots*0.25) || counts["00"]+counts["01"] != shots {
			t.Fatalf("seed %s: counts %v, want 00 and 01 near %d each:\n%s", seed, counts, shots/2, out)
		}
	}
}

func TestTelemetryArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e skipped in -short mode")
	}
	dir := t.TempDir()
	svsim := buildTool(t, dir, "svsim/cmd/svsim")

	// Clean exit.
	clean := filepath.Join(dir, "clean")
	out := runTool(t, svsim, "-circuit", "qft_n15", "-backend", "scale-out", "-pes", "4",
		"-sched", "lazy", "-obs-dir", clean)
	if !strings.Contains(out, "phase attribution") || !strings.Contains(out, "critical path") {
		t.Fatalf("no phase summary in output:\n%s", out)
	}
	checkTelemetryArtifacts(t, clean)

	// Abort exit: an injected kill must still flush every sink.
	fault := filepath.Join(dir, "fault")
	cmd := exec.Command(svsim, "-circuit", "qft_n15", "-backend", "scale-out", "-pes", "4",
		"-fault", "kill:rank=1:op=barrier:after=30", "-obs-dir", fault)
	outB, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("fault run: want exit 1, got %v\n%s", err, outB)
	}
	if !strings.Contains(string(outB), "injected kill") {
		t.Fatalf("fault run output does not name the fault:\n%s", outB)
	}
	events := checkTelemetryArtifacts(t, fault)
	for _, kind := range []string{"fault_injected", "pe_failure", "run_failed"} {
		if !strings.Contains(events, `"kind":"`+kind+`"`) {
			t.Errorf("flight trail missing %s event:\n%s", kind, events)
		}
	}
}

// checkTelemetryArtifacts validates that dir holds exactly the four
// artifact files, checks each, and returns the flight dump for
// event-level assertions.
func checkTelemetryArtifacts(t *testing.T, dir string) string {
	t.Helper()

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	// ReadDir sorts by name.
	if got, want := strings.Join(names, " "), "flight.jsonl metrics.om phases.json trace.json"; got != want {
		t.Fatalf("-obs-dir holds %q, want %q", got, want)
	}

	raw, err := os.ReadFile(filepath.Join(dir, obs.FlightFile))
	if err != nil {
		t.Fatalf("flight dump: %v", err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("flight dump is empty")
	}
	for i, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("flight line %d is not JSON: %v\n%s", i, err, line)
		}
	}

	var rep struct {
		SchemaVersion int   `json:"schema_version"`
		WallNS        int64 `json:"wall_ns"`
		PerPE         []struct {
			PE       int              `json:"pe"`
			WallNS   int64            `json:"wall_ns"`
			PhasesNS map[string]int64 `json:"phases_ns"`
		} `json:"per_pe"`
	}
	rawRep, err := os.ReadFile(filepath.Join(dir, obs.PhasesFile))
	if err != nil {
		t.Fatalf("phase report: %v", err)
	}
	if err := json.Unmarshal(rawRep, &rep); err != nil {
		t.Fatalf("phase report not valid JSON: %v", err)
	}
	if rep.SchemaVersion != 1 || rep.WallNS <= 0 || len(rep.PerPE) != 4 {
		t.Fatalf("phase report malformed: version=%d wall=%d rows=%d",
			rep.SchemaVersion, rep.WallNS, len(rep.PerPE))
	}
	for _, pp := range rep.PerPE {
		var sum int64
		for _, d := range pp.PhasesNS {
			sum += d
		}
		if diff := sum - pp.WallNS; diff < -pp.WallNS/20 || diff > pp.WallNS/20 {
			t.Errorf("PE %d phase sum %d vs wall %d: off by more than 5%%", pp.PE, sum, pp.WallNS)
		}
	}

	rawOM, err := os.ReadFile(filepath.Join(dir, obs.MetricsFile))
	if err != nil {
		t.Fatalf("openmetrics dump: %v", err)
	}
	if _, err := obs.ParseOpenMetrics(rawOM); err != nil {
		t.Fatalf("openmetrics dump rejected: %v", err)
	}

	rawTrace, err := os.ReadFile(filepath.Join(dir, obs.TraceFile))
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rawTrace, &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Fatal("trace has no spans")
	}
	return string(raw)
}

// TestServiceEndToEnd boots the real svserved daemon and submits the
// same circuit twice through the real svsim binary — once locally, once
// via -submit over HTTP — and asserts the printed amplitudes and shot
// samples are identical: the service boundary must not perturb the
// simulation. The daemon is then drained with a real SIGINT and must
// exit cleanly.
func TestServiceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e skipped in -short mode")
	}
	dir := t.TempDir()
	svsim := buildTool(t, dir, "svsim/cmd/svsim")
	svserved := buildTool(t, dir, "svsim/cmd/svserved")

	daemon := exec.Command(svserved, "-listen", "localhost:0",
		"-fleet-pool", "scale-out:4,scale-out:2",
		"-workdir", filepath.Join(dir, "work"))
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	daemon.Stderr = io.Discard
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		daemon.Process.Signal(os.Interrupt) //nolint:errcheck
		go func() { exited <- daemon.Wait() }()
		select {
		case err := <-exited:
			if err != nil {
				t.Errorf("svserved did not drain cleanly: %v", err)
			}
		case <-time.After(30 * time.Second):
			daemon.Process.Kill() //nolint:errcheck
			t.Error("svserved still running 30s after SIGINT")
		}
	}
	defer stop()

	// The boot line names the ephemeral address:
	//   svserved: listening on http://127.0.0.1:PORT (pool: ...)
	scanner := bufio.NewScanner(stdout)
	var addr string
	for scanner.Scan() {
		line := scanner.Text()
		if i := strings.Index(line, "http://"); i >= 0 {
			addr = strings.Fields(line[i+len("http://"):])[0]
			break
		}
	}
	if addr == "" {
		t.Fatal("svserved never printed its listen address")
	}
	go func() { // keep draining so the daemon never blocks on stdout
		for scanner.Scan() {
		}
	}()

	args := []string{"-circuit", "bv_n14", "-seed", "7", "-sched", "lazy", "-state", "-shots", "8"}
	local := runTool(t, svsim, args...)
	remote := runTool(t, svsim, append(args, "-submit", addr, "-tenant", "alice")...)
	if !strings.Contains(remote, "accepted by http://"+addr) {
		t.Fatalf("remote run did not report submission:\n%s", remote)
	}

	// Everything from the state header on — amplitudes and shot samples
	// — must match byte for byte.
	cut := func(out string) string {
		i := strings.Index(out, "state   :")
		if i < 0 {
			t.Fatalf("no state section in output:\n%s", out)
		}
		return out[i:]
	}
	if l, r := cut(local), cut(remote); l != r {
		t.Fatalf("CLI and HTTP outputs differ:\nlocal:\n%s\nremote:\n%s", l, r)
	}

	stop()
}
