package cliutil

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/ckpt"
	"svsim/internal/core"
	"svsim/internal/sched"
)

func TestValidatePEs(t *testing.T) {
	for _, ok := range []int{1, 2, 4, 8, 64} {
		if err := ValidatePEs(ok); err != nil {
			t.Errorf("pes=%d: unexpected %v", ok, err)
		}
	}
	cases := []struct {
		pes  int
		want string
	}{
		{0, "at least 1"},
		{-4, "at least 1"},
		{3, "power of two"},
		{12, "power of two"},
	}
	for _, c := range cases {
		err := ValidatePEs(c.pes)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("pes=%d: error %v, want mention of %q", c.pes, err, c.want)
		}
	}
}

func TestValidateCheckpointing(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "regular")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name        string
		every       int
		dir, resume string
		maxRestarts int
		want        string // empty = valid
	}{
		{"all off", 0, "", "", 0, ""},
		{"basic on", 10, dir, "", 2, ""},
		{"dir only", 0, dir, "", 0, ""},
		{"negative interval", -5, dir, "", 0, "must be positive"},
		{"negative restarts", 10, dir, "", -1, "cannot be negative"},
		{"interval without dir", 10, "", "", 0, "-checkpoint-dir"},
		{"restarts without dir", 0, "", "", 3, "-checkpoint-dir"},
		{"dir is a file", 10, file, "", 0, "-checkpoint-dir " + file},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := ValidateCheckpointing(c.every, c.dir, c.resume, c.maxRestarts)
			if c.want == "" {
				if err != nil {
					t.Fatalf("unexpected %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want mention of %q", err, c.want)
			}
		})
	}
}

func TestEnsureWritableDirCreatesAndProbes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b")
	if err := EnsureWritableDir("-obs-dir", dir); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("dir not created: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("probe file left behind: %v", ents)
	}
}

func TestEnsureWritableDirRejectsReadOnly(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("root ignores permission bits")
	}
	parent := t.TempDir()
	ro := filepath.Join(parent, "ro")
	if err := os.Mkdir(ro, 0o555); err != nil {
		t.Fatal(err)
	}
	if err := EnsureWritableDir("-workdir", ro); err == nil || !strings.Contains(err.Error(), "-workdir "+ro) {
		t.Fatalf("error %v, want a writability error naming -workdir", err)
	}
}

// TestValidateResume exercises the flag cross-checks against a real
// checkpoint written by the scale-out backend.
func TestValidateResume(t *testing.T) {
	dir := t.TempDir()
	c := circuit.New("probe", 5)
	c.H(0)
	for q := 1; q < 5; q++ {
		c.CX(0, q)
	}
	c.H(1).H(2).H(3).H(4).CX(1, 3).CX(2, 4).H(0)
	cfg := core.Config{PEs: 4, Seed: 1, CheckpointEvery: 4, CheckpointDir: dir}
	if _, err := core.NewScaleOut(cfg).Run(c); err != nil {
		t.Fatal(err)
	}
	step, _, err := ckpt.Resolve(dir)
	if err != nil {
		t.Fatalf("no checkpoint to validate against: %v", err)
	}
	if err := ValidateResume(dir, "scale-out", 4, "naive"); err != nil {
		t.Fatalf("matching resume rejected: %v", err)
	}
	// The same checkpoint under a v1 manifest, which never recorded the
	// op cut a reshard needs.
	v1 := filepath.Join(t.TempDir(), "ckpt-1")
	man, err := os.ReadFile(filepath.Join(step, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	man = []byte(strings.Replace(string(man), ckpt.Schema, ckpt.SchemaV1, 1))
	if err := os.Mkdir(v1, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(v1, "MANIFEST.json"), man, 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		resume  string
		backend string
		pes     int
		sched   string
		want    string // empty = valid
	}{
		{"backend mismatch", dir, "scale-up", 4, "naive", "-backend"},
		{"sched mismatch", dir, "scale-out", 4, "lazy", "-sched"},
		{"pes reshards", dir, "scale-out", 8, "naive", ""},
		{"v1 on its pes", v1, "scale-out", 4, "naive", ""},
		{"v1 on other pes", v1, "scale-out", 2, "naive", ckpt.SchemaV1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateResume(tc.resume, tc.backend, tc.pes, tc.sched)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want mention of %q", err, tc.want)
			}
		})
	}
	if err := ValidateResume(filepath.Join(dir, "nope"), "scale-out", 4, "naive"); err == nil {
		t.Fatal("missing resume dir accepted")
	}
	if err := ValidateResume("", "anything", 0, ""); err != nil {
		t.Fatalf("empty resume should be a no-op, got %v", err)
	}
}

// TestValidateResumeRemap pins the manifest identity of the remap
// baseline: the mpi row under the lazy plan records backend "mpi" and
// schedule "lazy", so -sched (not a backend alias) says which plan the
// checkpoint belongs to, and a resume under the deleted "remap" alias
// is pointed at -backend mpi.
func TestValidateResumeRemap(t *testing.T) {
	dir := t.TempDir()
	c := circuit.New("probe", 6)
	for q := 0; q < 6; q++ {
		c.H(q)
	}
	for q := 0; q < 5; q++ {
		c.CX(q, q+1)
	}
	cfg := core.Config{PEs: 4, Seed: 1, Sched: sched.Lazy, CheckpointEvery: 3, CheckpointDir: dir}
	if _, err := core.NewMPI(cfg).Run(c); err != nil {
		t.Fatal(err)
	}
	if err := ValidateResume(dir, "mpi", 4, "lazy"); err != nil {
		t.Fatalf("matching remap resume rejected: %v", err)
	}
	if err := ValidateResume(dir, "mpi", 2, "lazy"); err != nil {
		t.Fatalf("resharding remap resume rejected: %v", err)
	}
	err := ValidateResume(dir, "mpi", 4, "naive")
	if err == nil || !strings.Contains(err.Error(), "-sched lazy") {
		t.Fatalf("error %v, want a pointer to -sched lazy", err)
	}
	if err := ValidateResume(dir, "remap", 4, "lazy"); err == nil || !strings.Contains(err.Error(), "-backend mpi") {
		t.Fatalf("error %v, want the remap alias pointed at -backend mpi", err)
	}
}

func TestParseFleetPool(t *testing.T) {
	fleets, err := ParseFleetPool("scale-out:4, scale-out:2,threaded:8")
	if err != nil {
		t.Fatal(err)
	}
	want := []FleetSpec{{"scale-out", 4}, {"scale-out", 2}, {"threaded", 8}}
	if len(fleets) != len(want) {
		t.Fatalf("fleets %+v, want %+v", fleets, want)
	}
	for i := range want {
		if fleets[i] != want[i] {
			t.Fatalf("fleet %d = %+v, want %+v", i, fleets[i], want[i])
		}
	}
}

func TestParseFleetPoolRejections(t *testing.T) {
	cases := []struct {
		name string
		spec string
		want string
	}{
		{"empty pool", "", "-fleet-pool is empty"},
		{"blank pool", "   ", "-fleet-pool is empty"},
		{"missing colon", "scale-out", "want backend:pes"},
		{"unknown backend", "gpu:4", `backend "gpu" is not a fleet backend`},
		{"non-numeric pes", "scale-out:four", `PE count "four" is not a number`},
		{"zero pes", "scale-out:0", "PE count must be at least 1"},
		{"negative pes", "threaded:-2", "PE count must be at least 1"},
		{"non-power-of-two", "scale-out:6", "PE count 6 must be a power of two"},
		{"bad second entry", "scale-out:4,scale-out:3", "PE count 3 must be a power of two"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseFleetPool(tc.spec)
			if err == nil {
				t.Fatalf("%q accepted", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateServe(t *testing.T) {
	cfg := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(cfg, []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ValidateServe("localhost:9470", 64, cfg, "scale-out:4,scale-out:2"); err != nil {
		t.Fatalf("valid serve flags rejected: %v", err)
	}
	if err := ValidateServe(":0", 1, "", "single:1"); err != nil {
		t.Fatalf("ephemeral port rejected: %v", err)
	}
}

func TestValidateServeRejections(t *testing.T) {
	cases := []struct {
		name         string
		listen       string
		queueDepth   int
		tenantConfig string
		fleetPool    string
		want         string
	}{
		{"empty listen", "", 64, "", "scale-out:4", "-listen is required"},
		{"listen without port", "localhost", 64, "", "scale-out:4", "not a host:port address"},
		{"zero queue depth", ":0", 0, "", "scale-out:4", "-queue-depth 0"},
		{"negative queue depth", ":0", -3, "", "scale-out:4", "capacity for at least 1 job"},
		{"unreadable tenant config", ":0", 64, "/nonexistent/tenants.json", "scale-out:4", "is not readable"},
		{"bad fleet pool", ":0", 64, "", "", "-fleet-pool is empty"},
		{"bad fleet entry", ":0", 64, "", "scale-out:3", "power of two"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateServe(tc.listen, tc.queueDepth, tc.tenantConfig, tc.fleetPool)
			if err == nil {
				t.Fatal("invalid serve flags accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
