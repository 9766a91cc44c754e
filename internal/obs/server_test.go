package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func get(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", url, resp.StatusCode, body)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// TestServerScrape starts the shared listener and checks each endpoint:
// /metrics must serve a parseable OpenMetrics exposition with the
// declared content type and live process gauges, /debug/flight must
// stream the recorder as JSONL, and /debug/pprof must answer.
func TestServerScrape(t *testing.T) {
	m := NewMetrics()
	m.Counter(MetricRemoteBytes).Add(12345)
	m.Histogram(MetricPutBytes, SizeBuckets()).Observe(512)
	f := NewFlightRecorder(64)
	f.Record(-1, EventRunStart, "scrape-test", 1)

	addr, stop, err := StartServer("127.0.0.1:0", ServeOpts{Metrics: m, Flight: f})
	if err != nil {
		t.Fatal(err)
	}
	defer stop() //nolint:errcheck

	body, ctype := get(t, "http://"+addr+"/metrics")
	if ctype != ContentTypeOpenMetrics {
		t.Fatalf("content type = %q, want %q", ctype, ContentTypeOpenMetrics)
	}
	samples, err := ParseOpenMetrics([]byte(body))
	if err != nil {
		t.Fatalf("scrape rejected by validator: %v\n%s", err, body)
	}
	if samples == 0 {
		t.Fatal("scrape carried no samples")
	}
	for _, want := range []string{
		"pgas_remote_bytes_total 12345",
		MetricUptimeSeconds, MetricHeapAllocBytes, MetricGoroutines,
		MetricFlightEvents,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q:\n%s", want, body)
		}
	}

	flight, _ := get(t, "http://"+addr+"/debug/flight")
	var ev FlightEvent
	line := strings.SplitN(strings.TrimRight(flight, "\n"), "\n", 2)[0]
	if err := json.Unmarshal([]byte(line), &ev); err != nil {
		t.Fatalf("/debug/flight is not JSONL: %v\n%s", err, flight)
	}
	if ev.Kind != EventRunStart {
		t.Fatalf("first flight event = %+v", ev)
	}

	pprofBody, _ := get(t, "http://"+addr+"/debug/pprof/cmdline")
	if pprofBody == "" {
		t.Fatal("pprof endpoint returned nothing")
	}
}

// TestServerConcurrentScrape scrapes /metrics while writers are
// hammering the registry and recorder — the mid-run scrape contract.
// Every response must independently satisfy the format validator.
// Meaningful under -race as well.
func TestServerConcurrentScrape(t *testing.T) {
	m := NewMetrics()
	f := NewFlightRecorder(256)
	addr, stop, err := StartServer("127.0.0.1:0", ServeOpts{Metrics: m, Flight: f})
	if err != nil {
		t.Fatal(err)
	}
	defer stop() //nolint:errcheck

	done := make(chan struct{})
	var writers sync.WaitGroup
	for pe := 0; pe < 4; pe++ {
		writers.Add(1)
		go func(rank int) {
			defer writers.Done()
			h := m.Histogram(fmt.Sprintf("%s.g%d", MetricGateKernelNS, rank), LatencyBuckets())
			c := m.Counter(MetricRemoteBytes)
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				c.Add(8)
				h.Observe(float64(i))
				f.Record(rank, EventRetry, "", int64(i))
				runtime.Gosched()
			}
		}(pe)
	}

	for i := 0; i < 20; i++ {
		body, _ := get(t, "http://"+addr+"/metrics")
		if _, err := ParseOpenMetrics([]byte(body)); err != nil {
			t.Fatalf("mid-run scrape %d invalid: %v\n%s", i, err, body)
		}
		if _, err := http.Get("http://" + addr + "/debug/flight"); err != nil {
			t.Fatalf("flight scrape %d: %v", i, err)
		}
	}
	close(done)
	writers.Wait()
}
