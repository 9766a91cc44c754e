package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func baseRecords() []record {
	return []record{
		{Schema: "svsim-bench/v1", Workload: "qft_n15", Backend: "scale-out", PEs: 8, Coalesced: true,
			ElapsedNS: 100_000_000, CommRemoteBytes: 42_467_328},
		{Schema: "svsim-bench/v1", Workload: "qft_n15", Backend: "scale-out", PEs: 8, Sched: "lazy",
			ElapsedNS: 90_000_000, CommRemoteBytes: 917_504},
		{Schema: "svsim-bench/v1", Workload: "ghz_state", Backend: "single", PEs: 1,
			ElapsedNS: 1_000_000, CommRemoteBytes: 0},
	}
}

func TestNoRegressionWithinTolerance(t *testing.T) {
	base := baseRecords()
	cur := baseRecords()
	cur[0].ElapsedNS = 110_000_000   // wall time is not gated
	cur[1].CommRemoteBytes = 917_504 // unchanged
	regs, _ := diff(base, cur, 0.15)
	if len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
}

func TestSynthetic20PercentRegressionFails(t *testing.T) {
	// The acceptance demonstration: a synthetic 20% remote-byte regression
	// on the lazy-scheduled run must fail under the default 15% tolerance.
	base := baseRecords()
	cur := baseRecords()
	cur[1].CommRemoteBytes = cur[1].CommRemoteBytes * 120 / 100
	regs, _ := diff(base, cur, 0.15)
	if len(regs) != 1 {
		t.Fatalf("want exactly 1 regression, got %v", regs)
	}
	if regs[0].Metric != "remote_bytes" {
		t.Fatalf("wrong metric flagged: %v", regs[0])
	}
	// Wall time is a series on the -html page, not a gate: the clock is
	// compared by paired svperf runs, never against a stored record.
	cur = baseRecords()
	cur[0].ElapsedNS *= 10
	cur[0].CompileNS = 1 << 40
	if regs, _ = diff(base, cur, 0.15); len(regs) != 0 {
		t.Fatalf("wall time gated: %v", regs)
	}
}

func TestZeroBaselineGainingTrafficFails(t *testing.T) {
	base := baseRecords()
	cur := baseRecords()
	cur[2].CommRemoteBytes = 4096 // communication-free run started communicating
	regs, _ := diff(base, cur, 0.15)
	if len(regs) != 1 || regs[0].Metric != "remote_bytes" {
		t.Fatalf("zero-baseline growth not flagged: %v", regs)
	}
}

func TestBytesTouchedRegressionFails(t *testing.T) {
	// The tiled-execution trajectory gate: >15% growth in state-vector
	// memory traffic fails, shrinkage is an improvement note.
	base := baseRecords()
	for i := range base {
		base[i].BytesTouched = 1_000_000
	}
	cur := append([]record(nil), base...)
	cur[0].BytesTouched = 1_200_000 // +20%
	regs, _ := diff(base, cur, 0.15)
	if len(regs) != 1 || regs[0].Metric != "bytes_touched" {
		t.Fatalf("bytes_touched regression not flagged: %v", regs)
	}
	cur = append([]record(nil), base...)
	cur[0].BytesTouched = 250_000 // the tile win
	regs, notes := diff(base, cur, 0.15)
	if len(regs) != 0 {
		t.Fatalf("bytes_touched improvement flagged as regression: %v", regs)
	}
	if len(notes) == 0 {
		t.Fatal("bytes_touched improvement not noted")
	}
}

func TestSweepsRegressionFails(t *testing.T) {
	// The sweep-count gate: a workload that needs >15% more passes over
	// the state (a diagonal run or a tiled group fell apart) fails even
	// when its bytes stay level; fewer passes is an improvement note.
	base := baseRecords()
	for i := range base {
		base[i].Sweeps = 54
	}
	cur := append([]record(nil), base...)
	cur[0].Sweeps = 264
	regs, _ := diff(base, cur, 0.15)
	if len(regs) != 1 || regs[0].Metric != "sweeps" {
		t.Fatalf("sweeps regression not flagged: %v", regs)
	}
	cur = append([]record(nil), base...)
	cur[0].Sweeps = 21
	if regs, notes := diff(base, cur, 0.15); len(regs) != 0 || len(notes) == 0 {
		t.Fatalf("sweeps improvement: regressions %v, notes %v", regs, notes)
	}
}

func TestTileKeySuffix(t *testing.T) {
	// Tiled records get their own key so per-gate and tiled runs of the
	// same configuration track separately; non-tiled keys are unchanged
	// from pre-tile baseline files.
	plain := record{Workload: "qft_n15", Backend: "single", PEs: 1}
	tiled := plain
	tiled.Tile = true
	if plain.key() == tiled.key() {
		t.Fatal("tiled and per-gate records share a key")
	}
	if strings.Contains(plain.key(), "tile") {
		t.Fatalf("non-tiled key mentions tile: %s", plain.key())
	}
	if !strings.HasSuffix(tiled.key(), "/tile") {
		t.Fatalf("tiled key missing /tile suffix: %s", tiled.key())
	}
}

func TestMissingConfigFails(t *testing.T) {
	base := baseRecords()
	cur := baseRecords()[:2]
	regs, _ := diff(base, cur, 0.15)
	if len(regs) != 1 || regs[0].Metric != "missing" {
		t.Fatalf("dropped config not flagged: %v", regs)
	}
}

func TestNewConfigIsNoteOnly(t *testing.T) {
	base := baseRecords()
	cur := append(baseRecords(), record{Workload: "new_thing", Backend: "single", PEs: 1, ElapsedNS: 1})
	regs, notes := diff(base, cur, 0.15)
	if len(regs) != 0 {
		t.Fatalf("new config treated as regression: %v", regs)
	}
	if len(notes) == 0 {
		t.Fatal("new config not noted")
	}
}

func TestImprovementIsNoted(t *testing.T) {
	base := baseRecords()
	cur := baseRecords()
	cur[0].CommRemoteBytes /= 2
	regs, notes := diff(base, cur, 0.15)
	if len(regs) != 0 {
		t.Fatalf("improvement flagged as regression: %v", regs)
	}
	if len(notes) == 0 {
		t.Fatal("improvement not noted")
	}
}

// TestCommandExitCodes runs the built binary end to end and pins the
// documented exit-code contract: 0 when every configuration is within
// tolerance, 1 on a regression, 2 for usage errors — missing or
// malformed inputs.
func TestCommandExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run subprocess test in -short mode")
	}
	dir := t.TempDir()
	write := func(name string, recs []record) string {
		p := filepath.Join(dir, name)
		raw, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	basePath := write("base.json", baseRecords())
	goodPath := write("good.json", baseRecords())
	bad := baseRecords()
	bad[1].CommRemoteBytes = bad[1].CommRemoteBytes * 120 / 100
	badPath := write("bad.json", bad)

	bin := filepath.Join(dir, "benchdiff")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"within tolerance", []string{"-baseline", basePath, "-current", goodPath}, 0},
		{"regression", []string{"-baseline", basePath, "-current", badPath}, 1},
		{"missing -current", []string{"-baseline", basePath}, 2},
		{"unreadable current", []string{"-baseline", basePath, "-current", filepath.Join(dir, "absent.json")}, 2},
		{"html too few files", []string{"-html", filepath.Join(dir, "out.html"), basePath}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			got := 0
			if err != nil {
				ee, ok := err.(*exec.ExitError)
				if !ok {
					t.Fatalf("running %v: %v\n%s", tc.args, err, out)
				}
				got = ee.ExitCode()
			}
			if got != tc.want {
				t.Fatalf("benchdiff %v: exit %d, want %d\n%s", tc.args, got, tc.want, out)
			}
		})
	}

	// The exit-code contract must be discoverable from -h.
	out, _ := exec.Command(bin, "-h").CombinedOutput()
	for _, want := range []string{"Exit codes:", "0  every compared", "1  at least one regression", "2  usage error"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("-h output missing %q:\n%s", want, out)
		}
	}
}

func TestLoadDiagnostics(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name string
		path string
		want string
	}{
		{"missing file", filepath.Join(dir, "absent.json"), "generate it with"},
		{"empty file", write("empty.json", ""), "interrupted"},
		{"malformed json", write("garbage.json", "{not json"), "malformed bench records"},
		{"empty array", write("none.json", "[]"), "no bench records"},
		{"wrong schema", write("other.json", `[{"foo": 1}]`), "workload/backend"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := load(tc.path)
			if err == nil {
				t.Fatal("expected a load error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestLoadAcceptsValidRecords(t *testing.T) {
	dir := t.TempDir()
	raw, err := json.Marshal(baseRecords())
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "ok.json")
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := load(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(baseRecords()) {
		t.Fatalf("loaded %d records, want %d", len(recs), len(baseRecords()))
	}
}
