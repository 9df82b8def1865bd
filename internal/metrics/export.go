package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/jsonw"
)

// BucketSnapshot is one histogram bucket in a snapshot: the number of
// observations at or below UpperBound (non-cumulative; the exporter
// cumulates for Prometheus).
type BucketSnapshot struct {
	UpperBound int64  `json:"le"`
	Count      uint64 `json:"count"`
}

// HistogramSnapshot is the frozen state of one histogram.
type HistogramSnapshot struct {
	Count    uint64           `json:"count"`
	Sum      int64            `json:"sum"`
	Min      int64            `json:"min"`
	Max      int64            `json:"max"`
	Mean     float64          `json:"mean"`
	Buckets  []BucketSnapshot `json:"buckets"`
	Overflow uint64           `json:"overflow"`
}

// MetricSnapshot is the frozen state of one instrument.
type MetricSnapshot struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Help   string  `json:"help,omitempty"`
	Labels []Label `json:"labels,omitempty"`

	// Value is the counter count or gauge value, always emitted so a zero
	// counter stays distinguishable from an absent one; HighWater
	// accompanies gauges.
	Value     int64              `json:"value"`
	HighWater int64              `json:"highWater,omitempty"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// Snapshot is the frozen state of a whole registry, in registration order.
type Snapshot struct {
	Metrics []MetricSnapshot `json:"metrics"`
}

// Snapshot freezes the current state of every registered metric. It is safe
// to take mid-run, between simulation steps, and allocates only the snapshot
// itself (never mutating instrument state).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	s.Metrics = make([]MetricSnapshot, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms := MetricSnapshot{Name: m.name, Kind: m.kind.String(), Help: m.help, Labels: m.labels}
		switch m.kind {
		case KindCounter:
			ms.Value = int64(m.counter.Value())
		case KindGauge:
			ms.Value = m.gauge.Value()
			ms.HighWater = m.gauge.HighWater()
		case KindHistogram:
			h := m.hist
			hs := &HistogramSnapshot{
				Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(), Mean: h.Mean(),
				Overflow: h.counts[len(h.bounds)],
			}
			hs.Buckets = make([]BucketSnapshot, len(h.bounds))
			for i, b := range h.bounds {
				hs.Buckets[i] = BucketSnapshot{UpperBound: b, Count: h.counts[i]}
			}
			ms.Histogram = hs
		}
		s.Metrics = append(s.Metrics, ms)
	}
	return s
}

// Get returns the snapshot of the named metric (first label-set match wins
// when name is ambiguous), and false when absent.
func (s Snapshot) Get(name string) (MetricSnapshot, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return MetricSnapshot{}, false
}

// WriteJSON writes the registry snapshot as an indented JSON document: the
// bytes json.Encoder with SetIndent("", "  ") writes for Snapshot, laid out
// by hand in one pass (TestWriteJSONMatchesEncoder holds the two equal).
func (r *Registry) WriteJSON(w io.Writer) error {
	s := r.Snapshot()
	return jsonw.Write(w, s.appendJSON)
}

// appendJSON appends the indented document of the snapshot.
func (s Snapshot) appendJSON(dst []byte) []byte {
	dst = append(dst, "{\n  \"metrics\": "...)
	switch {
	case s.Metrics == nil:
		dst = append(dst, "null"...)
	case len(s.Metrics) == 0:
		dst = append(dst, "[]"...)
	default:
		dst = append(dst, '[')
		for i := range s.Metrics {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = s.Metrics[i].appendJSON(dst)
		}
		dst = append(dst, "\n  ]"...)
	}
	return append(dst, "\n}\n"...)
}

// appendJSON appends one element of the "metrics" array, fields in
// declaration order with the omitempty ones left out when empty.
func (m *MetricSnapshot) appendJSON(dst []byte) []byte {
	dst = append(dst, "\n    {\n      \"name\": "...)
	dst = jsonw.AppendString(dst, m.Name)
	dst = append(dst, ",\n      \"kind\": "...)
	dst = jsonw.AppendString(dst, m.Kind)
	if m.Help != "" {
		dst = append(dst, ",\n      \"help\": "...)
		dst = jsonw.AppendString(dst, m.Help)
	}
	if len(m.Labels) > 0 {
		dst = append(dst, ",\n      \"labels\": ["...)
		for i, l := range m.Labels {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, "\n        {\n          \"name\": "...)
			dst = jsonw.AppendString(dst, l.Name)
			dst = append(dst, ",\n          \"value\": "...)
			dst = jsonw.AppendString(dst, l.Value)
			dst = append(dst, "\n        }"...)
		}
		dst = append(dst, "\n      ]"...)
	}
	dst = append(dst, ",\n      \"value\": "...)
	dst = strconv.AppendInt(dst, m.Value, 10)
	if m.HighWater != 0 {
		dst = append(dst, ",\n      \"highWater\": "...)
		dst = strconv.AppendInt(dst, m.HighWater, 10)
	}
	if h := m.Histogram; h != nil {
		dst = append(dst, ",\n      \"histogram\": {\n        \"count\": "...)
		dst = strconv.AppendUint(dst, h.Count, 10)
		dst = append(dst, ",\n        \"sum\": "...)
		dst = strconv.AppendInt(dst, h.Sum, 10)
		dst = append(dst, ",\n        \"min\": "...)
		dst = strconv.AppendInt(dst, h.Min, 10)
		dst = append(dst, ",\n        \"max\": "...)
		dst = strconv.AppendInt(dst, h.Max, 10)
		dst = append(dst, ",\n        \"mean\": "...)
		dst = jsonw.AppendFloat(dst, h.Mean)
		dst = append(dst, ",\n        \"buckets\": "...)
		switch {
		case h.Buckets == nil:
			dst = append(dst, "null"...)
		case len(h.Buckets) == 0:
			dst = append(dst, "[]"...)
		default:
			dst = append(dst, '[')
			for i, b := range h.Buckets {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = append(dst, "\n          {\n            \"le\": "...)
				dst = strconv.AppendInt(dst, b.UpperBound, 10)
				dst = append(dst, ",\n            \"count\": "...)
				dst = strconv.AppendUint(dst, b.Count, 10)
				dst = append(dst, "\n          }"...)
			}
			dst = append(dst, "\n        ]"...)
		}
		dst = append(dst, ",\n        \"overflow\": "...)
		dst = strconv.AppendUint(dst, h.Overflow, 10)
		dst = append(dst, "\n      }"...)
	}
	return append(dst, "\n    }"...)
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers per family, cumulative _bucket
// series plus _sum and _count for histograms. Gauges additionally expose
// their high-water mark as a companion `<name>_highwater` gauge.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, fam := range r.families() {
		head := fam[0]
		if head.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", head.name, head.help); err != nil {
				return err
			}
		}
		typ := "counter"
		switch head.kind {
		case KindGauge:
			typ = "gauge"
		case KindHistogram:
			typ = "histogram"
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", head.name, typ); err != nil {
			return err
		}
		for _, m := range fam {
			if err := writePromMetric(w, m); err != nil {
				return err
			}
		}
	}
	// High-water companions come after the main families so each family
	// block stays contiguous.
	for _, fam := range r.families() {
		if fam[0].kind != KindGauge {
			continue
		}
		name := fam[0].name + "_highwater"
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", name); err != nil {
			return err
		}
		for _, m := range fam {
			if _, err := fmt.Fprintf(w, "%s%s %d\n", name, promLabels(m.labels, "", 0), m.gauge.HighWater()); err != nil {
				return err
			}
		}
	}
	return nil
}

// writePromMetric writes one instrument's sample lines.
func writePromMetric(w io.Writer, m *metric) error {
	switch m.kind {
	case KindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", m.name, promLabels(m.labels, "", 0), m.counter.Value())
		return err
	case KindGauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", m.name, promLabels(m.labels, "", 0), m.gauge.Value())
		return err
	case KindHistogram:
		h := m.hist
		var cum uint64
		for i, b := range h.bounds {
			cum += h.counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				m.name, promLabels(m.labels, "le", b), cum); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.bounds)]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, promLabelsInf(m.labels), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", m.name, promLabels(m.labels, "", 0), h.Sum()); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", m.name, promLabels(m.labels, "", 0), h.Count())
		return err
	}
	return nil
}

// promLabels renders a label set, optionally appending an le bucket label.
func promLabels(labels []Label, le string, bound int64) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(le)
		b.WriteString(`="`)
		b.WriteString(strconv.FormatInt(bound, 10))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// promLabelsInf renders a label set with le="+Inf".
func promLabelsInf(labels []Label) string {
	var b strings.Builder
	b.WriteByte('{')
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`",`)
	}
	b.WriteString(`le="+Inf"}`)
	return b.String()
}

// escapeLabel escapes backslash, double-quote and newline per the text
// exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}
