// Trajectory mode: fold a sequence of per-commit BENCH record files
// into one self-contained HTML report — no external scripts or assets,
// so the file can be archived as a CI artifact and opened anywhere.
// Each tracked metric gets an inline SVG chart with one polyline per
// bench configuration, the x axis being the commit sequence.
package main

import (
	"fmt"
	"html"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// trajMetric selects one record field to chart.
type trajMetric struct {
	name  string
	unit  string
	value func(*record) int64
}

// trajMetrics are the trajectory charts, in report order: wall time and
// compile time (noisy, machine-dependent) bracket the deterministic
// remote-byte series that CI gates on; bind_ns is the share of compile
// time spent binding parameters into cached plans (the sweep records).
var trajMetrics = []trajMetric{
	{"elapsed_ns", "ns", func(r *record) int64 { return r.ElapsedNS }},
	{"comm_remote_bytes", "B", func(r *record) int64 { return r.CommRemoteBytes }},
	{"compile_ns", "ns", func(r *record) int64 { return r.CompileNS }},
	{"bind_ns", "ns", func(r *record) int64 { return r.BindNS }},
}

// snapshot is one BENCH file resolved into a labeled point in time.
type snapshot struct {
	label string
	recs  map[string]*record // config key -> record
}

// loadSnapshots reads the record files in the order given, labeling each
// by the git commit stamped into its records, or by file name for
// pre-stamping files.
func loadSnapshots(paths []string) ([]snapshot, error) {
	snaps := make([]snapshot, 0, len(paths))
	for _, p := range paths {
		recs, err := load(p)
		if err != nil {
			return nil, err
		}
		s := snapshot{recs: make(map[string]*record, len(recs))}
		for i := range recs {
			r := &recs[i]
			s.recs[r.key()] = r
			if s.label == "" && r.GitCommit != "" {
				s.label = short(r.GitCommit, 12)
			}
		}
		if s.label == "" {
			s.label = strings.TrimSuffix(filepath.Base(p), filepath.Ext(p))
		}
		snaps = append(snaps, s)
	}
	return snaps, nil
}

func short(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	return s
}

// configKeys returns every configuration present in any snapshot, in
// stable order, so chart colors stay consistent across regenerations.
func configKeys(snaps []snapshot) []string {
	seen := make(map[string]bool)
	var keys []string
	for _, s := range snaps {
		for k := range s.recs {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// palette cycles through visually distinct line colors.
var palette = []string{
	"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
	"#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
}

// Chart geometry. The plot area excludes the margins; series are drawn
// on an evenly spaced x grid (one column per snapshot) with a linear y
// scale from zero to the metric's maximum.
const (
	chartW  = 920
	chartH  = 300
	marginL = 70
	marginR = 20
	marginT = 16
	marginB = 48
)

// writeTrajectoryHTML renders the trajectory report to path.
func writeTrajectoryHTML(path string, files []string) error {
	snaps, err := loadSnapshots(files)
	if err != nil {
		return err
	}
	keys := configKeys(snaps)
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n")
	b.WriteString("<title>svsim bench trajectory</title>\n<style>\n")
	b.WriteString("body{font-family:system-ui,sans-serif;margin:2em;max-width:980px}\n")
	b.WriteString("h2{margin-top:2em}\n")
	b.WriteString("svg{background:#fafafa;border:1px solid #ddd}\n")
	b.WriteString(".legend{font-size:13px;line-height:1.6}\n")
	b.WriteString(".legend span.swatch{display:inline-block;width:10px;height:10px;margin-right:4px}\n")
	b.WriteString("</style>\n</head>\n<body>\n")
	fmt.Fprintf(&b, "<h1>svsim bench trajectory</h1>\n<p>%d snapshots: %s</p>\n",
		len(snaps), html.EscapeString(joinLabels(snaps)))
	for _, m := range trajMetrics {
		renderChart(&b, m, snaps, keys)
	}
	b.WriteString("<div class=\"legend\">\n")
	for i, k := range keys {
		fmt.Fprintf(&b, "<div><span class=\"swatch\" style=\"background:%s\"></span>%s</div>\n",
			palette[i%len(palette)], html.EscapeString(k))
	}
	b.WriteString("</div>\n</body>\n</html>\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func joinLabels(snaps []snapshot) string {
	labels := make([]string, len(snaps))
	for i, s := range snaps {
		labels[i] = s.label
	}
	return strings.Join(labels, " → ")
}

// renderChart emits one metric's SVG: a polyline per configuration over
// the snapshot sequence, gaps where a configuration is absent from a
// snapshot, y gridlines at quarters of the maximum.
func renderChart(b *strings.Builder, m trajMetric, snaps []snapshot, keys []string) {
	var max int64
	for _, s := range snaps {
		for _, r := range s.recs {
			if v := m.value(r); v > max {
				max = v
			}
		}
	}
	if max == 0 {
		max = 1 // all-zero series still render as a flat baseline
	}
	fmt.Fprintf(b, "<h2>%s</h2>\n", html.EscapeString(m.name))
	fmt.Fprintf(b, "<svg width=\"%d\" height=\"%d\" role=\"img\">\n", chartW, chartH)
	plotW := chartW - marginL - marginR
	plotH := chartH - marginT - marginB
	// y gridlines + labels at 0%, 25%, 50%, 75%, 100% of max.
	for i := 0; i <= 4; i++ {
		frac := float64(i) / 4
		y := float64(marginT) + float64(plotH)*(1-frac)
		fmt.Fprintf(b, "<line x1=\"%d\" y1=\"%.1f\" x2=\"%d\" y2=\"%.1f\" stroke=\"#e0e0e0\"/>\n",
			marginL, y, chartW-marginR, y)
		fmt.Fprintf(b, "<text x=\"%d\" y=\"%.1f\" font-size=\"11\" text-anchor=\"end\" fill=\"#555\">%s</text>\n",
			marginL-6, y+4, fmtValue(int64(frac*float64(max)), m.unit))
	}
	// x labels: one per snapshot, rotated when crowded is overkill for
	// the dozen-commit windows CI keeps; plain labels suffice.
	for i, s := range snaps {
		x := xPos(i, len(snaps), plotW)
		fmt.Fprintf(b, "<text x=\"%.1f\" y=\"%d\" font-size=\"11\" text-anchor=\"middle\" fill=\"#555\">%s</text>\n",
			x, chartH-marginB+18, html.EscapeString(s.label))
	}
	for ki, k := range keys {
		color := palette[ki%len(palette)]
		var pts []string
		flush := func() {
			if len(pts) > 0 {
				fmt.Fprintf(b, "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" stroke-width=\"1.5\"><title>%s</title></polyline>\n",
					strings.Join(pts, " "), color, html.EscapeString(k))
				pts = nil
			}
		}
		for i, s := range snaps {
			r, ok := s.recs[k]
			if !ok {
				flush() // gap: the config is absent from this snapshot
				continue
			}
			v := m.value(r)
			x := xPos(i, len(snaps), plotW)
			y := float64(marginT) + float64(plotH)*(1-float64(v)/float64(max))
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", x, y))
			fmt.Fprintf(b, "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"2.5\" fill=\"%s\"><title>%s\n%s = %s</title></circle>\n",
				x, y, color, html.EscapeString(k), html.EscapeString(m.name), fmtValue(v, m.unit))
		}
		flush()
	}
	b.WriteString("</svg>\n")
}

// xPos spreads n snapshot columns evenly over the plot width; a single
// snapshot sits centered.
func xPos(i, n, plotW int) float64 {
	if n <= 1 {
		return float64(marginL) + float64(plotW)/2
	}
	return float64(marginL) + float64(plotW)*float64(i)/float64(n-1)
}

// fmtValue renders a metric value with its unit, scaling nanoseconds
// and bytes into readable magnitudes.
func fmtValue(v int64, unit string) string {
	switch unit {
	case "ns":
		switch {
		case v >= 1e9:
			return fmt.Sprintf("%.2fs", float64(v)/1e9)
		case v >= 1e6:
			return fmt.Sprintf("%.1fms", float64(v)/1e6)
		case v >= 1e3:
			return fmt.Sprintf("%.1fµs", float64(v)/1e3)
		default:
			return fmt.Sprintf("%dns", v)
		}
	case "B":
		switch {
		case v >= 1<<30:
			return fmt.Sprintf("%.2fGiB", float64(v)/(1<<30))
		case v >= 1<<20:
			return fmt.Sprintf("%.2fMiB", float64(v)/(1<<20))
		case v >= 1<<10:
			return fmt.Sprintf("%.1fKiB", float64(v)/(1<<10))
		default:
			return fmt.Sprintf("%dB", v)
		}
	default:
		return fmt.Sprintf("%d%s", v, unit)
	}
}
