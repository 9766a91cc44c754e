package perf

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Spec is BENCHMARK.json.
type Spec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []WorkloadDef `json:"workloads"`
	EndToEnd   []Def         `json:"end_to_end"`
	PerLayer   []Def         `json:"per_layer"`
}

// LoadSpec reads BENCHMARK.json, refusing keys it does not know.
func LoadSpec(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Record is one run in a result set: a line of the file -out appends to.
type Record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result
}

// AppendRecord adds one run to a result set.
func AppendRecord(path string, r Record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadRecords reads a result set.
func LoadRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// side summarises one metric of one workload in one result set.
type side struct {
	n          int
	med        float64
	q1, q3     float64
	haveSpread bool
}

func summarise(xs []float64) side {
	s := side{n: len(xs), med: median(xs)}
	if len(xs) >= 2 {
		s.q1, s.q3 = quartiles(xs)
		s.haveSpread = true
	}
	return s
}

// spread is the distance between the quartiles as a share of the median.
func (s side) spread() float64 { return (s.q3 - s.q1) / s.med }

// Compare checks result set b (the change) against a (the parent, or
// another set of the same commit) on every end-to-end metric of every
// workload, one row per pair, and returns how many pairs violate their
// bound. A pair is a violation when b's median is worse than a's by more
// than the bound, or when b failed more ops than a. A pair within its
// bound whose own quartile spread is wider than the bound is unresolved,
// not unchanged.
func Compare(spec *Spec, a, b []Record, out io.Writer) (int, error) {
	type key struct{ workload, metric string }
	collect := func(rs []Record) (map[key][]float64, map[string][2]int) {
		vals, ops := map[key][]float64{}, map[string][2]int{}
		for _, r := range rs {
			if r.Trace {
				continue
			}
			o := ops[r.Workload]
			ops[r.Workload] = [2]int{o[0] + r.Failed, o[1] + r.Attempted}
			for name, mt := range r.Metrics {
				vals[key{r.Workload, name}] = append(vals[key{r.Workload, name}], mt.Value)
			}
		}
		return vals, ops
	}
	va, opsA := collect(a)
	vb, opsB := collect(b)

	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1,q3] n\tB median [q1,q3] n\tchange\tbound\tverdict")
	cell := func(s side) string {
		if !s.haveSpread {
			return fmt.Sprintf("%.4g n=%d", s.med, s.n)
		}
		return fmt.Sprintf("%.4g [%.4g,%.4g] n=%d", s.med, s.q1, s.q3, s.n)
	}
	violations := 0
	for _, w := range spec.Workloads {
		for _, d := range spec.EndToEnd {
			xa, xb := va[key{w.Name, d.Name}], vb[key{w.Name, d.Name}]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t%.0f%%\tmissing\n", w.Name, d.Name, 100*d.Bound)
				violations++
				continue
			}
			sa, sb := summarise(xa), summarise(xb)
			worse := (sb.med - sa.med) / sa.med
			if d.Better == higher {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "VIOLATION"
				violations++
			case sa.haveSpread && sb.haveSpread && max(sa.spread(), sb.spread()) > d.Bound:
				verdict = "unresolved"
			case !sa.haveSpread || !sb.haveSpread:
				verdict = "ok (no spread: one run)"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n", w.Name, d.Name, cell(sa), cell(sb), 100*worse, 100*d.Bound, verdict)
		}
		fa, fb := opsA[w.Name], opsB[w.Name]
		verdict := "ok"
		// fail_ratio may not rise at all: cross-multiplied to stay in integers.
		if fb[1] == 0 || fa[1] == 0 || fb[0]*fa[1] > fa[0]*fb[1] {
			verdict = "VIOLATION"
			violations++
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\t%d/%d\t%d/%d\t\tany\t%s\n", w.Name, fa[0], fa[1], fb[0], fb[1], verdict)
	}
	return violations, tw.Flush()
}
