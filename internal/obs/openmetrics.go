package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// OpenMetrics text exposition over the metrics registry, so a scrape of
// a live run (or a file dump at run end) is consumable by Prometheus-
// compatible collectors without any dependency on their client
// libraries.
//
// Mapping: registry names are dotted families — "gate_kernel_ns.cx" is
// the per-kind member of the "gate_kernel_ns" family. The exposition
// renders the part before the first dot as the metric name and the rest
// as a `kind` label, so a dashboard can aggregate or facet per gate
// kind. Counters gain the mandatory `_total` suffix; histograms render
// cumulative `le` buckets (registry buckets are per-bucket counts with
// inclusive upper bounds, which matches the OpenMetrics bucket
// semantics directly) plus `_sum` and `_count`. Output is sorted, so
// equal registries render byte-identical expositions — which is what
// the golden-file test pins.

// ContentTypeOpenMetrics is the HTTP content type of the exposition.
const ContentTypeOpenMetrics = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// series is one renderable sample family member.
type series struct {
	family string // exposition metric family name
	kind   string // value of the `kind` label, "" for none
	typ    string // counter | gauge | histogram
	val    float64
	hist   HistogramSnapshot
}

// splitName maps a registry name onto (family, kind label), sanitizing
// the family to the OpenMetrics name charset.
func splitName(name string) (string, string) {
	fam, kind := name, ""
	if i := strings.IndexByte(name, '.'); i >= 0 {
		fam, kind = name[:i], name[i+1:]
	}
	return sanitizeName(fam), kind
}

func sanitizeName(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func labels(kind string) string {
	if kind == "" {
		return ""
	}
	return `{kind="` + escapeLabel(kind) + `"}`
}

func labelsLe(kind, le string) string {
	if kind == "" {
		return `{le="` + le + `"}`
	}
	return `{kind="` + escapeLabel(kind) + `",le="` + le + `"}`
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteOpenMetrics renders the registry's current values as an
// OpenMetrics text exposition, terminated by the mandatory "# EOF".
// Safe to call while recording continues (a scrape mid-run sees a
// consistent-enough point-in-time view; counters are monotone).
func (m *Metrics) WriteOpenMetrics(w io.Writer) error {
	snap := m.Snapshot()

	byFam := make(map[string][]series)
	add := func(s series) { byFam[s.family] = append(byFam[s.family], s) }
	for name, v := range snap.Counters {
		fam, kind := splitName(name)
		add(series{family: fam, kind: kind, typ: "counter", val: float64(v)})
	}
	for name, v := range snap.Gauges {
		fam, kind := splitName(name)
		add(series{family: fam, kind: kind, typ: "gauge", val: v})
	}
	for name, h := range snap.Histograms {
		fam, kind := splitName(name)
		add(series{family: fam, kind: kind, typ: "histogram", hist: h})
	}

	fams := make([]string, 0, len(byFam))
	for f := range byFam {
		fams = append(fams, f)
	}
	sort.Strings(fams)

	bw := bufio.NewWriter(w)
	for _, fam := range fams {
		ss := byFam[fam]
		sort.Slice(ss, func(i, j int) bool { return ss[i].kind < ss[j].kind })
		// A family's type comes from its first member; mixed-type name
		// collisions cannot happen from one registry (separate maps are
		// keyed by full dotted name, and dotted families are per-type by
		// construction of the canonical metric names).
		fmt.Fprintf(bw, "# TYPE %s %s\n", fam, ss[0].typ)
		for _, s := range ss {
			switch s.typ {
			case "counter":
				fmt.Fprintf(bw, "%s_total%s %s\n", fam, labels(s.kind), fmtFloat(s.val))
			case "gauge":
				fmt.Fprintf(bw, "%s%s %s\n", fam, labels(s.kind), fmtFloat(s.val))
			case "histogram":
				var cum int64
				for i, b := range s.hist.Bounds {
					cum += s.hist.Counts[i]
					fmt.Fprintf(bw, "%s_bucket%s %d\n", fam, labelsLe(s.kind, fmtFloat(b)), cum)
				}
				fmt.Fprintf(bw, "%s_bucket%s %d\n", fam, labelsLe(s.kind, "+Inf"), s.hist.Count)
				fmt.Fprintf(bw, "%s_sum%s %s\n", fam, labels(s.kind), fmtFloat(s.hist.Sum))
				fmt.Fprintf(bw, "%s_count%s %d\n", fam, labels(s.kind), s.hist.Count)
			}
		}
	}
	if _, err := bw.WriteString("# EOF\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// ParseOpenMetrics validates a text exposition: every sample must belong
// to a family declared by a preceding # TYPE line with a suffix legal
// for that type, histogram buckets must be cumulative with a closing
// +Inf bucket matching _count, and the body must end with # EOF. It
// returns the number of sample lines. This is the acceptance check used
// by the format tests and by scrapes of a live run.
func ParseOpenMetrics(data []byte) (samples int, err error) {
	lines := strings.Split(string(data), "\n")
	if len(lines) > 0 && lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 || lines[len(lines)-1] != "# EOF" {
		return 0, fmt.Errorf("openmetrics: exposition does not end with # EOF")
	}
	types := make(map[string]string)
	lastBucket := make(map[string]int64) // series key -> previous cumulative count
	infBucket := make(map[string]int64)  // series key (sans le) -> +Inf cumulative
	for ln, line := range lines[:len(lines)-1] {
		if line == "" {
			return 0, fmt.Errorf("openmetrics: line %d: empty line inside exposition", ln+1)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				return 0, fmt.Errorf("openmetrics: line %d: malformed TYPE line %q", ln+1, line)
			}
			name, typ := parts[2], parts[3]
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				return 0, fmt.Errorf("openmetrics: line %d: unknown type %q", ln+1, typ)
			}
			if _, dup := types[name]; dup {
				return 0, fmt.Errorf("openmetrics: line %d: duplicate TYPE for %q", ln+1, name)
			}
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP/UNIT lines are legal; we emit none
		}
		name, lbls, value, perr := parseSample(line)
		if perr != nil {
			return 0, fmt.Errorf("openmetrics: line %d: %v", ln+1, perr)
		}
		fam, suffix := familyOf(name, types)
		if fam == "" {
			return 0, fmt.Errorf("openmetrics: line %d: sample %q has no preceding TYPE declaration", ln+1, name)
		}
		typ := types[fam]
		switch typ {
		case "counter":
			if suffix != "_total" {
				return 0, fmt.Errorf("openmetrics: line %d: counter sample %q must end in _total", ln+1, name)
			}
			if value < 0 {
				return 0, fmt.Errorf("openmetrics: line %d: negative counter %q", ln+1, name)
			}
		case "gauge":
			if suffix != "" {
				return 0, fmt.Errorf("openmetrics: line %d: gauge sample %q has illegal suffix %q", ln+1, name, suffix)
			}
		case "histogram":
			switch suffix {
			case "_bucket":
				le, ok := lbls["le"]
				if !ok {
					return 0, fmt.Errorf("openmetrics: line %d: bucket %q without le label", ln+1, name)
				}
				key := fam + "|" + lbls["kind"]
				if int64(value) < lastBucket[key] {
					return 0, fmt.Errorf("openmetrics: line %d: bucket counts of %q not cumulative", ln+1, name)
				}
				lastBucket[key] = int64(value)
				if le == "+Inf" {
					infBucket[key] = int64(value)
					delete(lastBucket, key) // next labeled series starts fresh
				}
			case "_sum":
			case "_count":
				key := fam + "|" + lbls["kind"]
				inf, ok := infBucket[key]
				if !ok {
					return 0, fmt.Errorf("openmetrics: line %d: %s_count before its +Inf bucket", ln+1, fam)
				}
				if int64(value) != inf {
					return 0, fmt.Errorf("openmetrics: line %d: %s_count=%d != +Inf bucket %d", ln+1, fam, int64(value), inf)
				}
			default:
				return 0, fmt.Errorf("openmetrics: line %d: histogram sample %q has illegal suffix %q", ln+1, name, suffix)
			}
		}
		samples++
	}
	return samples, nil
}

// familyOf resolves a sample name to its declared family by stripping a
// known suffix; returns the family and the suffix that was stripped.
func familyOf(name string, types map[string]string) (string, string) {
	for _, suf := range []string{"_total", "_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			if fam := strings.TrimSuffix(name, suf); types[fam] != "" {
				return fam, suf
			}
		}
	}
	if types[name] != "" {
		return name, ""
	}
	return "", ""
}

// parseSample splits "name{l1=\"v1\",...} value" (labels optional).
func parseSample(line string) (name string, lbls map[string]string, value float64, err error) {
	lbls = map[string]string{}
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		j := strings.IndexByte(line, '}')
		if j < i {
			return "", nil, 0, fmt.Errorf("unbalanced label braces in %q", line)
		}
		for _, pair := range strings.Split(line[i+1:j], ",") {
			if pair == "" {
				continue
			}
			eq := strings.IndexByte(pair, '=')
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("malformed label %q", pair)
			}
			v := strings.Trim(pair[eq+1:], `"`)
			lbls[pair[:eq]] = v
		}
		rest = strings.TrimSpace(line[j+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return "", nil, 0, fmt.Errorf("malformed sample %q", line)
		}
		name, rest = fields[0], fields[1]
	}
	// A sample may carry an optional timestamp; we emit none, so exactly
	// one value field is expected.
	fields := strings.Fields(rest)
	if len(fields) != 1 {
		return "", nil, 0, fmt.Errorf("malformed sample value in %q", line)
	}
	v, perr := strconv.ParseFloat(fields[0], 64)
	if perr != nil {
		return "", nil, 0, fmt.Errorf("bad value %q: %v", fields[0], perr)
	}
	return name, lbls, v, nil
}
