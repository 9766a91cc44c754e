package obs

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// record feeds every recorder of s one event, as a short run would.
func record(s *Sinks) {
	t0 := time.Now()
	s.Tracer.Track(0).SpanAt("h q0", t0, t0.Add(time.Microsecond), SpanArgs{Kind: "h"})
	s.Metrics.Counter(MetricRemoteBytes).Add(64)
	s.Metrics.Histogram(MetricBarrierWaitNS, LatencyBuckets()).Observe(250)
	s.Flight.Record(-1, EventRunStart, "", 1)
}

func TestSinksOffWhenEmpty(t *testing.T) {
	s, err := Open("", "")
	if err != nil {
		t.Fatal(err)
	}
	if s.Tracer != nil || s.Metrics != nil || s.Flight != nil || s.Addr != "" {
		t.Fatalf("sinks on with no dir and no listener: %+v", s)
	}
	record(s) // nil recorders drop everything
	var out strings.Builder
	if err := s.Flush(&out, PhaseReportOpts{}); err != nil || out.Len() != 0 {
		t.Fatalf("Flush without a dir: err=%v, printed %q", err, out.String())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSinksFlush pins the artifact set: exactly the four files, each
// announced, with a metrics dump the OpenMetrics validator accepts.
func TestSinksFlush(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if s.Tracer == nil || s.Metrics == nil || s.Flight == nil {
		t.Fatalf("a dir must turn on every recorder: %+v", s)
	}
	record(s)
	var out strings.Builder
	if err := s.Flush(&out, PhaseReportOpts{Backend: "single", PEs: 1, WallNS: 2000}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	want := []string{TraceFile, MetricsFile, PhasesFile, FlightFile}
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("files %v, want %v", got, want)
	}
	for _, f := range want {
		if !strings.Contains(out.String(), "wrote "+filepath.Join(dir, f)) {
			t.Errorf("%s not announced:\n%s", f, out.String())
		}
	}
	if !strings.Contains(out.String(), "phase attribution") {
		t.Errorf("no phase summary printed:\n%s", out.String())
	}
	om, err := os.ReadFile(filepath.Join(dir, MetricsFile))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ParseOpenMetrics(om); err != nil || n == 0 {
		t.Fatalf("%s: %d samples, %v\n%s", MetricsFile, n, err, om)
	}
}

// TestSinksFlushFailure: every file follows one rule — a failure is
// returned, the remaining files are still tried, and the first error
// wins.
func TestSinksFlushFailure(t *testing.T) {
	t.Run("dir removed after Open", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "obs")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, "")
		if err != nil {
			t.Fatal(err)
		}
		record(s)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		err = s.Flush(&out, PhaseReportOpts{})
		if !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), TraceFile) {
			t.Fatalf("error %v, want the first file's (%s) not-exist error", err, TraceFile)
		}
		if strings.Contains(out.String(), "wrote") {
			t.Fatalf("announced a file it could not write:\n%s", out.String())
		}
	})
	t.Run("first file blocked", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, TraceFile), 0o755); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, "")
		if err != nil {
			t.Fatal(err)
		}
		record(s)
		var out strings.Builder
		if err := s.Flush(&out, PhaseReportOpts{}); err == nil || !strings.Contains(err.Error(), TraceFile) {
			t.Fatalf("error %v, want one naming %s", err, TraceFile)
		}
		for _, f := range []string{MetricsFile, PhasesFile, FlightFile} {
			if fi, err := os.Stat(filepath.Join(dir, f)); err != nil || fi.Size() == 0 {
				t.Errorf("%s not written after the first file failed: %v", f, err)
			}
		}
	})
}

// TestSinksListen: a listener alone turns on what it serves (metrics,
// flight) and always serves pprof; without a dir Flush writes nothing.
func TestSinksListen(t *testing.T) {
	s, err := Open("", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck
	if s.Tracer != nil || s.Metrics == nil || s.Flight == nil || s.Addr == "" {
		t.Fatalf("listener-only sinks: %+v", s)
	}
	record(s)
	body, _ := get(t, "http://"+s.Addr+"/metrics")
	if _, err := ParseOpenMetrics([]byte(body)); err != nil {
		t.Fatalf("scrape rejected: %v\n%s", err, body)
	}
	if body, _ := get(t, "http://"+s.Addr+"/debug/pprof/cmdline"); body == "" {
		t.Fatal("pprof returned nothing")
	}
	if err := s.Flush(&strings.Builder{}, PhaseReportOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
