package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the OpenMetrics golden file from the current renderer")

// goldenRegistry builds a fixed registry exercising every series shape:
// plain and dotted counters, plain and dotted gauges, and histograms
// with in-range, boundary, and overflow observations.
func goldenRegistry() *Metrics {
	m := NewMetrics()
	m.Counter(MetricRemoteBytes).Add(917504)
	m.Counter(MetricRemapCount).Add(3)
	m.Counter("gate_count.cx").Add(210)
	m.Counter("gate_count.h").Add(120)
	m.Gauge(MetricGoroutines).Set(12)
	m.Gauge("queue_depth.put").Set(4.5)
	h := m.Histogram(MetricMsgBytes, []float64{8, 64, 512})
	h.Observe(4)    // first bucket
	h.Observe(64)   // inclusive upper bound: second bucket
	h.Observe(4096) // overflow: +Inf only
	g := m.Histogram(MetricGateKernelNS+".h", []float64{100, 200})
	g.Observe(150)
	return m
}

// TestOpenMetricsGolden pins the exposition byte-for-byte: sorted
// families, _total counter suffixes, cumulative le buckets closed by
// +Inf, and the terminal # EOF. Regenerate with -update after an
// intentional format change.
func TestOpenMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "openmetrics.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/obs -run OpenMetricsGolden -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden file\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
	// Determinism: a second render of an equal registry is byte-identical.
	var again bytes.Buffer
	if err := goldenRegistry().WriteOpenMetrics(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("equal registries rendered different expositions")
	}
}

// TestOpenMetricsParseRoundTrip feeds the renderer's own output to the
// validating parser.
func TestOpenMetricsParseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseOpenMetrics(buf.Bytes())
	if err != nil {
		t.Fatalf("renderer output rejected: %v\n%s", err, buf.Bytes())
	}
	// 4 counter samples + 2 gauges + 2 histograms × (buckets + +Inf + sum
	// + count): msg_bytes has 3 bounds (6 lines), gate_kernel_ns.h has 2
	// bounds (5 lines).
	if want := 4 + 2 + 6 + 5; samples != want {
		t.Fatalf("parsed %d samples, want %d", samples, want)
	}
}

func TestParseOpenMetricsRejects(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"no EOF", "# TYPE a counter\na_total 1\n", "does not end with # EOF"},
		{"undeclared sample", "b_total 1\n# EOF\n", "no preceding TYPE"},
		{"counter without _total", "# TYPE a counter\na 1\n# EOF\n", "must end in _total"},
		{"negative counter", "# TYPE a counter\na_total -1\n# EOF\n", "negative counter"},
		{"gauge with suffix", "# TYPE g gauge\ng_total 1\n# EOF\n", "illegal suffix"},
		{"non-cumulative buckets", "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" + `h_bucket{le="+Inf"} 5` + "\n" +
			"h_sum 4\nh_count 5\n# EOF\n", "not cumulative"},
		{"count mismatch", "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="+Inf"} 5` + "\n" +
			"h_sum 4\nh_count 7\n# EOF\n", "!= +Inf bucket"},
		{"duplicate TYPE", "# TYPE a counter\n# TYPE a counter\na_total 1\n# EOF\n", "duplicate TYPE"},
		{"garbage line", "# TYPE a counter\nnot a sample at all here\n# EOF\n", "malformed sample"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseOpenMetrics([]byte(tc.body))
			if err == nil {
				t.Fatalf("accepted invalid exposition:\n%s", tc.body)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestOpenMetricsNameSanitization keeps arbitrary registry names inside
// the OpenMetrics charset.
func TestOpenMetricsNameSanitization(t *testing.T) {
	m := NewMetrics()
	m.Counter("weird-name/1.cx weird").Add(1)
	m.Counter("9starts_with_digit").Add(2)
	var buf bytes.Buffer
	if err := m.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	if !strings.Contains(doc, "weird_name_1_total") {
		t.Errorf("family not sanitized:\n%s", doc)
	}
	if !strings.Contains(doc, "_9starts_with_digit_total") {
		t.Errorf("leading digit not guarded:\n%s", doc)
	}
	if _, err := ParseOpenMetrics(buf.Bytes()); err != nil {
		t.Fatalf("sanitized exposition rejected: %v\n%s", err, doc)
	}
}
