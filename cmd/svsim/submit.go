package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"svsim/internal/circuit"
	"svsim/internal/serve"
	"svsim/internal/statevec"
)

// buildSpec assembles the shared job spec from the CLI flags — the same
// construction path the service decodes from POST /v1/jobs, so a flag
// combination and a JSON body describe a run identically.
func buildSpec(circuitName, qasmFile string, compact bool, schedName string, seed int64, shots int, fuse bool, tileBits int) (serve.JobSpec, error) {
	spec := serve.JobSpec{
		Circuit:  circuitName,
		Compact:  compact,
		Sched:    schedName,
		Seed:     seed,
		Shots:    shots,
		Fuse:     fuse,
		TileBits: tileBits,
	}
	if qasmFile != "" {
		src, err := os.ReadFile(qasmFile)
		if err != nil {
			return spec, err
		}
		spec.QASM = string(src)
		spec.Name = qasmFile
	}
	return spec, nil
}

// submitHints returns the backend/PE placement hints for -submit: only
// flags the user explicitly set become hints, so the -backend default
// ("single") does not silently pin remote jobs to single-device fleets.
func submitHints(backendName string, pes int) (string, int) {
	backend, pesHint := "", 0
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "backend":
			backend = backendName
		case "pes":
			pesHint = pes
		}
	})
	return backend, pesHint
}

// runSubmit sends the job to a running svserved instance, waits for it,
// and prints the same report a local run would — the final state is
// fetched in its exact binary form, so amplitudes and probabilities are
// bit-identical to executing the circuit here, and the shot counts are
// the job's, drawn by the same core.RunShots from the same seed.
func runSubmit(url string, spec serve.JobSpec, c *circuit.Circuit, shots int, printState bool) {
	if err := spec.Validate(); err != nil {
		fatal(err)
	}
	base := strings.TrimSuffix(url, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	body, err := json.Marshal(spec)
	if err != nil {
		fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		fatal(fmt.Errorf("submit to %s: %d: %s", base, resp.StatusCode, strings.TrimSpace(string(data))))
	}
	var st serve.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		fatal(err)
	}
	fmt.Printf("job     : %s accepted by %s (tenant %s, ~%d bytes predicted)\n",
		st.ID, base, st.Tenant, st.Estimate.Bytes)

	for !terminal(st.State) {
		time.Sleep(10 * time.Millisecond)
		st = fetchStatus(base, st.ID)
	}
	switch st.State {
	case serve.StateFailed:
		fatal(fmt.Errorf("job %s failed remotely: %s", st.ID, st.Detail))
	case serve.StateCanceled:
		fatal(fmt.Errorf("job %s was canceled remotely: %s", st.ID, st.Detail))
	}

	fmt.Printf("circuit : %s\n", c.Summary())
	fmt.Printf("backend : %s via %s\n", st.Fleet, base)
	fmt.Printf("elapsed : %v\n", time.Duration(st.ElapsedNS))
	if st.Preemptions > 0 {
		fmt.Printf("sched   : preempted %d time(s), wait %.3fs\n", st.Preemptions, st.WaitSeconds)
	}
	var sv *statevec.State
	if spec.ReturnState {
		sresp, err := http.Get(base + "/v1/jobs/" + st.ID + "/state")
		if err != nil {
			fatal(err)
		}
		defer sresp.Body.Close()
		if sresp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(sresp.Body)
			fatal(fmt.Errorf("state fetch: %d: %s", sresp.StatusCode, strings.TrimSpace(string(msg))))
		}
		if sv, err = statevec.ReadState(sresp.Body); err != nil {
			fatal(err)
		}
	}
	report(sv, st.Counts, shots, printState)
}

func terminal(s serve.JobState) bool {
	switch s {
	case serve.StateDone, serve.StateFailed, serve.StateCanceled:
		return true
	}
	return false
}

func fetchStatus(base, id string) serve.JobStatus {
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		fatal(err)
	}
	return st
}
