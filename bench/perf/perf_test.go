package perf

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json is what the driver reads and spec.go is what the code
// measures; neither may drift from the other.
func TestSpecAgreesWithBenchmarkJSON(t *testing.T) {
	spec, err := LoadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Workloads, Workloads) {
		t.Errorf("workloads differ:\n json %v\n code %v", spec.Workloads, Workloads)
	}
	if !reflect.DeepEqual(spec.EndToEnd, EndToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", spec.EndToEnd, EndToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, PerLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", spec.PerLayer, PerLayer)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	seen := map[string]bool{}
	for _, w := range Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad or repeated name, or a why that is not one short line", w.Name)
		}
		seen[w.Name] = true
	}
	hasSetup := false
	for _, d := range append(append([]Def{}, EndToEnd...), PerLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] || d.Unit == "" || (d.Better != lower && d.Better != higher) {
			t.Errorf("metric %+v: bad or repeated name, no unit, or no direction", d)
		}
		seen[d.Name] = true
		hasSetup = hasSetup || d == Def{"setup_s", "s", lower, d.Bound}
	}
	for _, d := range EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup || len(PerLayer) > 128 {
		t.Errorf("setup_s present = %v, per-layer metrics = %d (at most 128)", hasSetup, len(PerLayer))
	}
}

// Every workload runs at toy size in both modes, answers correctly, prints
// exactly its mode's metrics, and leaves nothing behind: no file, no
// goroutine.
func TestWorkloadsAtToySize(t *testing.T) {
	for _, w := range Workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name + "/untraced"
			if traced {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				before := runtime.NumGoroutine()
				rep, err := Run(Options{Workload: w.Name, Seed: 7, Seconds: 0.2, Trace: traced, Size: Toy, WorkDir: dir})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d\n%s", rep.Correct, rep.Failed, rep.Attempted, strings.Join(rep.Notes, "\n"))
				}
				defs := EndToEnd
				if traced {
					defs = PerLayer
				}
				if len(rep.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(rep.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := rep.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) {
						t.Errorf("metric %s: present=%v unit=%q value=%v", d.Name, ok, m.Unit, m.Value)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
					}
				}
				if traced {
					checkSpans(t, rep.Spans)
				}
				if left, _ := os.ReadDir(dir); len(left) != 0 {
					t.Errorf("run left %d entries in its work dir, first %s", len(left), left[0].Name())
				}
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(10 * time.Millisecond)
				}
				if after := runtime.NumGoroutine(); after > before {
					t.Errorf("goroutines: %d before the run, %d after", before, after)
				}
			})
		}
	}
}

// hung is a workload whose set-up does not return while its goroutines
// keep writing under the run's directory, as a service's checkpoint
// writers do in a run that hangs.
type hung struct {
	workload
	*env
	stop    chan struct{}
	writers sync.WaitGroup
}

func (h *hung) memShare() float64 { return 0 }

func (h *hung) setup() error {
	for i := 0; i < 2; i++ {
		h.writers.Add(1)
		go func(i int) {
			defer h.writers.Done()
			for n := 0; ; n++ {
				select {
				case <-h.stop:
					return
				default:
				}
				dir := filepath.Join(h.tmp, fmt.Sprintf("job-%d-%d", i, n%8))
				if os.MkdirAll(dir, 0o755) == nil {
					os.WriteFile(filepath.Join(dir, "shard"), make([]byte, 4096), 0o644) //nolint:errcheck // the directory may be gone
				}
			}
		}(i)
	}
	<-h.stop
	return errors.New("stopped")
}

func (h *hung) close() { h.writers.Wait() }

// A run that the watchdog ends leaves nothing behind but the empty file
// that keeps its still-running writers out until the process is gone, and
// exits with code 3.
func TestWatchdogLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	stop := make(chan struct{})
	constructors["hung"] = func(e *env) workload { return &hung{env: e, stop: stop} }
	realDie := die
	defer func() {
		delete(constructors, "hung")
		die = realDie
	}()
	code, problem := 0, ""
	die = func(placeholder string, c int) {
		code = c
		for _, wait := range []time.Duration{0, 50 * time.Millisecond} { // the writers are still at it
			time.Sleep(wait)
			left, _ := os.ReadDir(dir)
			info, err := os.Lstat(placeholder)
			if len(left) != 1 || err != nil || !info.Mode().IsRegular() || info.Size() != 0 {
				problem = fmt.Sprintf("after %v: %d entries, placeholder %v (err %v)", wait, len(left), info, err)
			}
		}
		close(stop)
	}
	_, err := Run(Options{Workload: "hung", Seconds: 1, WorkDir: dir, Timeout: 100 * time.Millisecond})
	if err == nil || code != 3 || problem != "" {
		t.Errorf("err = %v, exit code = %d, %s; want an error, 3 and only the placeholder left", err, code, problem)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("the run left %d entries behind, first %s", len(left), left[0].Name())
	}
}

// checkSpans wants every parent to exist and to enclose its child, and
// every layer named.
func checkSpans(t *testing.T, spans []Span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	for _, s := range spans {
		if s.EndNS < s.StartNS || s.Layer() == "" || s.ID < 1 || s.ID > len(spans) {
			t.Errorf("span %+v: ends before it starts, has no layer, or a bad id", s)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 1 || s.Parent > len(spans) {
			t.Errorf("span %+v: parent does not resolve", s)
			continue
		}
		p := spans[s.Parent-1]
		if p.ID != s.Parent || s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			t.Errorf("span %+v is not inside its parent %+v", s, p)
		}
	}
	for layer, self := range SelfTimes(spans) {
		if self < 0 {
			t.Errorf("layer %s: self time %v < 0", layer, self)
		}
	}
}

// A layer's self time is its spans minus what their children cover,
// children that overlap counted once.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "bench.rep", StartNS: 0, EndNS: 100e9},
		{ID: 2, Parent: 1, Name: "batch.RunAll", StartNS: 10e9, EndNS: 90e9},
		{ID: 3, Parent: 2, Name: "core.Run", StartNS: 10e9, EndNS: 50e9}, // two workers,
		{ID: 4, Parent: 2, Name: "core.Run", StartNS: 30e9, EndNS: 80e9}, // overlapping
		{ID: 5, Name: "pgas.Get", StartNS: 200e9, EndNS: 201e9},
	}
	want := map[string]float64{"bench": 20, "batch": 10, "core": 90, "pgas": 1}
	if got := SelfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("SelfTimes = %v, want %v", got, want)
	}
}

// A part of a probe that the host interrupts does not count.
func TestThreePartsIgnoresOneSlowPart(t *testing.T) {
	calls := 0
	got := threeParts(func() {
		calls++
		if calls == 2 {
			time.Sleep(60 * time.Millisecond)
		}
		time.Sleep(2 * time.Millisecond)
	})
	if calls != 3 || got < 0.006 || got > 0.030 {
		t.Errorf("threeParts ran %d parts and read %.4f s; want 3 parts and about 0.006 s", calls, got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of 1,2 = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = float64(i)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{7, 3}, {19, 9}, {20, 9.5}, {100, 89.1}, {200, 189.05}, {400, 379.05}} {
		if got := tail(xs[:c.n]); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tail of 0..%d = %v, want %v", c.n-1, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	spec := &Spec{
		Workloads: []WorkloadDef{{Name: "w"}},
		EndToEnd:  []Def{{"run_s", "s", lower, 0.10}, {"rate", "1/s", higher, 0.10}},
	}
	set := func(failed int, runS, rate []float64) []Record {
		var rs []Record
		for i := range runS {
			rs = append(rs, Record{Workload: "w", Result: Result{Attempted: 10, Failed: failed,
				Metrics: map[string]Metric{"run_s": {Value: runS[i]}, "rate": {Value: rate[i]}}}})
		}
		return rs
	}
	steady := []float64{1, 1.01, 0.99, 1, 1.02}
	for _, c := range []struct {
		name       string
		a, b       []Record
		violations int
		mention    string
	}{
		{"same", set(0, steady, steady), set(0, steady, steady), 0, "ok"},
		{"slower", set(0, steady, steady), set(0, []float64{1.2, 1.21, 1.19, 1.2, 1.2}, steady), 1, "VIOLATION"},
		{"lower rate", set(0, steady, steady), set(0, steady, []float64{0.8, 0.8, 0.8, 0.8, 0.8}), 1, "VIOLATION"},
		{"noisy", set(0, []float64{0.8, 1.2, 1, 0.7, 1.3}, steady), set(0, steady, steady), 0, "unresolved"},
		{"more failures", set(0, steady, steady), set(1, steady, steady), 1, "fail_ratio"},
		{"missing workload", set(0, steady, steady), nil, 3, "missing"},
	} {
		var out bytes.Buffer
		got, err := Compare(spec, c.a, c.b, &out)
		if err != nil || got != c.violations || !strings.Contains(out.String(), c.mention) {
			t.Errorf("%s: %d violations (err %v), want %d and a mention of %q:\n%s", c.name, got, err, c.violations, c.mention, out.String())
		}
	}
}
