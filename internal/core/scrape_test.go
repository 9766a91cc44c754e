package core

import (
	"io"
	"net/http"
	"testing"
	"time"

	"svsim/internal/obs"
	"svsim/internal/qasmbench"
)

// TestScrapeDuringThreadedRun is the live-exporter acceptance check: an
// HTTP scraper polls /metrics while a threaded backend run is recording
// into the same registry. Every mid-run exposition must pass the
// OpenMetrics validator, and the scraping must not perturb the
// simulation result. Run under -race this also validates that the
// scrape path and the PE recording paths share no unsynchronized state.
func TestScrapeDuringThreadedRun(t *testing.T) {
	e, err := qasmbench.ByName("qft_n15")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()

	metrics := obs.NewMetrics()
	flight := obs.NewFlightRecorder(obs.DefaultFlightCap)
	addr, stop, err := obs.StartServer("127.0.0.1:0", obs.ServeOpts{Metrics: metrics, Flight: flight})
	if err != nil {
		t.Fatal(err)
	}
	defer stop() //nolint:errcheck

	done := make(chan struct{})
	scrapes := make(chan error, 1)
	go func() {
		defer close(scrapes)
		n := 0
		for {
			select {
			case <-done:
				if n == 0 {
					// The run outpaced the poll loop; take one final scrape so
					// the test always validates at least one exposition.
					if err := scrapeOnce(addr); err != nil {
						scrapes <- err
					}
				}
				return
			default:
			}
			if err := scrapeOnce(addr); err != nil {
				scrapes <- err
				return
			}
			n++
			time.Sleep(2 * time.Millisecond)
		}
	}()

	plain, err := Run("threaded", Config{Seed: 5, PEs: 4}, c)
	if err != nil {
		t.Fatal(err)
	}
	scraped, err := Run("threaded", Config{Seed: 5, PEs: 4, Metrics: metrics, Flight: flight}, c)
	close(done)
	if err != nil {
		t.Fatal(err)
	}
	if serr := <-scrapes; serr != nil {
		t.Fatalf("mid-run scrape failed: %v", serr)
	}
	if d := plain.State.MaxAbsDiff(scraped.State); d != 0 {
		t.Fatalf("scraping changed the simulation result (maxAbsDiff=%g)", d)
	}
	// The run must have fed the registry the scraper was reading.
	snap := metrics.Snapshot()
	if len(snap.Histograms) == 0 {
		t.Fatal("run recorded no histograms into the scraped registry")
	}
}

func scrapeOnce(addr string) error {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	_, err = obs.ParseOpenMetrics(body)
	return err
}
