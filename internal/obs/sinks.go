package obs

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// The artifact files Sinks.Flush writes into its directory.
const (
	TraceFile   = "trace.json"   // Chrome trace-event timeline, one track per PE
	MetricsFile = "metrics.om"   // OpenMetrics exposition of the registry
	PhasesFile  = "phases.json"  // phase-attribution report
	FlightFile  = "flight.jsonl" // flight-recorder event ring
)

// Sinks is a run's observability: the recorders a backend feeds and the
// two places they drain to — a directory that receives a fixed artifact
// set when the run ends (cleanly or not), and an HTTP listener serving
// Mux for the run's duration. A directory turns on all three recorders; a
// listener alone turns on the two it serves (Metrics, Flight). Fields
// left nil are off, so they can be handed to a backend unconditionally.
type Sinks struct {
	Tracer  *Tracer
	Metrics *Metrics
	Flight  *FlightRecorder
	// Addr is the bound listener address ("" without a listener).
	Addr string

	dir  string
	stop func() error
}

// Open creates the recorders dir and listen ask for and starts the
// listener on listen (e.g. "localhost:9464", ":0" for an ephemeral port).
// With both empty every field is nil and Flush and Close do nothing. The
// caller creates dir; Flush reports a directory it cannot write into.
func Open(dir, listen string) (*Sinks, error) {
	s := &Sinks{dir: dir}
	if dir != "" {
		s.Tracer = NewTracer()
	}
	if dir != "" || listen != "" {
		s.Metrics = NewMetrics()
		s.Flight = NewFlightRecorder(DefaultFlightCap)
	}
	if listen != "" {
		addr, stop, err := StartServer(listen, ServeOpts{Metrics: s.Metrics, Flight: s.Flight})
		if err != nil {
			return nil, err
		}
		s.Addr, s.stop = addr, stop
	}
	return s, nil
}

// Flush writes the artifact set into the directory — TraceFile,
// MetricsFile, PhasesFile (built from the tracer and phases, whose summary
// table is printed to w) and FlightFile — announcing each written file on
// w. It tries every file past a failure and returns the first error. It
// does nothing without a directory.
func (s *Sinks) Flush(w io.Writer, phases PhaseReportOpts) error {
	if s == nil || s.dir == "" {
		return nil
	}
	rep := BuildPhaseReport(s.Tracer, phases)
	fmt.Fprint(w, rep.Summary())
	artifacts := []struct {
		label, file, detail string
		write               func(io.Writer) error
	}{
		{"trace", TraceFile, fmt.Sprintf(" (%d spans, %d tracks)", s.Tracer.TotalEvents(), len(s.Tracer.Tracks())), s.Tracer.WriteJSON},
		{"metrics", MetricsFile, "", s.Metrics.WriteOpenMetrics},
		{"phases", PhasesFile, "", rep.WriteJSON},
		{"flight", FlightFile, fmt.Sprintf(" (%d events, %d dropped)", s.Flight.Len(), s.Flight.Dropped()), s.Flight.WriteJSONL},
	}
	var first error
	for _, a := range artifacts {
		path := filepath.Join(s.dir, a.file)
		if err := WriteFile(path, a.write); err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		fmt.Fprintf(w, "%-8s: wrote %s%s\n", a.label, path, a.detail)
	}
	return first
}

// Close stops the listener, if any.
func (s *Sinks) Close() error {
	if s == nil || s.stop == nil {
		return nil
	}
	stop := s.stop
	s.stop = nil
	return stop()
}

// WriteFile creates path and streams write's output into it through one
// buffer: the file writer behind every artifact this package produces.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
