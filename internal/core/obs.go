package core

import (
	"strconv"
	"strings"
	"time"

	"svsim/internal/gate"
	"svsim/internal/obs"
)

// StepTrace names the sub-spans a transport records inside one plan
// step. The traced and untraced runs execute the same routine; a nil
// track only drops the records, so the per-phase shares of a traced run
// describe the loops an untraced run executes.
type StepTrace struct {
	trk   *obs.Track
	label string
	block int
}

// On reports whether spans are being recorded.
func (x StepTrace) On() bool { return x.trk != nil }

// Span records one sub-span named after the step plus suffix.
func (x StepTrace) Span(suffix string, start, end time.Time, args obs.SpanArgs) {
	if x.trk == nil {
		return
	}
	args.Block = x.block
	x.trk.SpanAt(x.label+suffix, start, end, args)
}

// Barrier records a one-barrier span from start to now and returns now.
func (x StepTrace) Barrier(suffix string, start time.Time) time.Time {
	now := time.Now()
	x.Span(suffix+" barrier", start, now, obs.SpanArgs{Kind: "barrier", Phase: obs.PhaseBarrier, Barriers: 1})
	return now
}

// spanDelta attributes the traffic between two Transport.Counters
// samples of one rank to a span.
func spanDelta(c0, c1 obs.SpanArgs) obs.SpanArgs {
	return obs.SpanArgs{
		LocalBytes:  c1.LocalBytes - c0.LocalBytes,
		RemoteBytes: c1.RemoteBytes - c0.RemoteBytes,
		LocalMsgs:   c1.LocalMsgs - c0.LocalMsgs,
		RemoteMsgs:  c1.RemoteMsgs - c0.RemoteMsgs,
		Barriers:    c1.Barriers - c0.Barriers,
		Msgs:        c1.Msgs - c0.Msgs,
		MsgBytes:    c1.MsgBytes - c0.MsgBytes,
		PackBytes:   c1.PackBytes - c0.PackBytes,
	}
}

// gateObs pre-resolves the per-kind gate-kernel latency histograms so
// the observed run loop records with one array index and an atomic add —
// no map lookup or string concatenation per gate. A nil *gateObs means
// metrics are off.
type gateObs struct {
	byKind [gate.NumKinds]*obs.Histogram
	run    *obs.Histogram // a diagonal run executed as one step
	pauli  *obs.Histogram // a Pauli gadget executed as one step
}

func newGateObs(m *obs.Metrics) *gateObs {
	if m == nil {
		return nil
	}
	g := &gateObs{}
	for k := 0; k < gate.NumKinds; k++ {
		name := obs.MetricGateKernelNS + "." + gate.Kind(k).String()
		g.byKind[k] = m.Histogram(name, obs.LatencyBuckets())
	}
	g.run = m.Histogram(obs.MetricGateKernelNS+".diag_run", obs.LatencyBuckets())
	g.pauli = m.Histogram(obs.MetricGateKernelNS+".pauli_rot", obs.LatencyBuckets())
	return g
}

func (g *gateObs) observe(k gate.Kind, d time.Duration) {
	if g == nil {
		return
	}
	g.byKind[k].Observe(float64(d.Nanoseconds()))
}

func (g *gateObs) observeRun(gadget bool, d time.Duration) {
	if g == nil {
		return
	}
	h := g.run
	if gadget {
		h = g.pauli
	}
	h.Observe(float64(d.Nanoseconds()))
}

// gateLabel renders a span name like "cx q2,q14". Called only on the
// traced path, so the allocation is off the hot loop.
func gateLabel(g *gate.Gate) string {
	if g.NQ == 0 {
		return g.Kind.String()
	}
	var b strings.Builder
	b.WriteString(g.Kind.String())
	for i := 0; i < int(g.NQ); i++ {
		if i == 0 {
			b.WriteString(" q")
		} else {
			b.WriteString(",q")
		}
		b.WriteString(strconv.Itoa(int(g.Qubits[i])))
	}
	return b.String()
}

// qubitList renders the operand qubits as "2,14" for span args.
func qubitList(g *gate.Gate) string {
	if g.NQ == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i < int(g.NQ); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(g.Qubits[i])))
	}
	return b.String()
}
