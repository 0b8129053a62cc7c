// Package analyze reads JSONL traces written by internal/obs back into
// structured form: the span tree, per-phase aggregates, folded stacks
// for flamegraphs, and a canonical A/B diff. It is
// the offline half of the observability stack — obs records, analyze
// answers questions — and it shares the determinism contract: every
// derived view except the explicitly timing-bearing ones depends only
// on the semantic event content, so two traces of the same seeded run
// analyze identically.
package analyze

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Span is one parsed span event linked into the reconstructed tree.
// IDs and parents come from the trace; Children is rebuilt by Parse and
// sorted by id, which is Start order.
type Span struct {
	Seq      int
	ID       int
	Parent   int // 0 for a root span
	Name     string
	TNs      int64 // start offset from trace start (wall clock)
	DurNs    int64 // duration (wall clock)
	Fields   []Field
	Children []*Span
}

// Field is one span field, with the value kept as raw JSON text so no
// reformatting can perturb it. Parse sorts fields by key.
type Field struct {
	Key   string
	Value string
}

// Metric is one metric event from the trace tail.
type Metric struct {
	Seq   int
	Name  string
	Type  string // "counter", "gauge", or "hist"
	Value string // raw JSON value for counters and gauges; "" for hists
	Count int64  // hist only
	Sum   float64
}

// Trace is a fully parsed trace file.
type Trace struct {
	Spans   []*Span // every span, in event (end) order
	Roots   []*Span // tree roots, sorted by id
	Metrics []Metric
}

// event mirrors the union of the obs wire shapes (jsonl.go).
type event struct {
	Ev     string                     `json:"ev"`
	Seq    int                        `json:"seq"`
	Span   string                     `json:"span"`
	ID     int                        `json:"id"`
	Parent int                        `json:"parent"`
	Fields map[string]json.RawMessage `json:"fields"`
	TNs    int64                      `json:"t_ns"`
	DurNs  int64                      `json:"dur_ns"`
	Metric string                     `json:"metric"`
	Type   string                     `json:"type"`
	Value  json.RawMessage            `json:"value"`
	Count  int64                      `json:"count"`
	Sum    float64                    `json:"sum"`
}

// Parse reads one JSONL trace and reconstructs the span tree. Spans
// whose parent never appears (a truncated trace, or a parent that was
// still open when the stream stopped) become roots, so a partial trace
// still analyzes. Duplicate span ids are a corrupt trace and an error.
func Parse(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("analyze: line %d: %w", lineNo, err)
		}
		switch ev.Ev {
		case "span":
			s := &Span{
				Seq:    ev.Seq,
				ID:     ev.ID,
				Parent: ev.Parent,
				Name:   ev.Span,
				TNs:    ev.TNs,
				DurNs:  ev.DurNs,
			}
			for k, v := range ev.Fields {
				s.Fields = append(s.Fields, Field{Key: k, Value: string(v)})
			}
			sort.Slice(s.Fields, func(i, j int) bool { return s.Fields[i].Key < s.Fields[j].Key })
			tr.Spans = append(tr.Spans, s)
		case "metric":
			tr.Metrics = append(tr.Metrics, Metric{
				Seq:   ev.Seq,
				Name:  ev.Metric,
				Type:  ev.Type,
				Value: string(ev.Value),
				Count: ev.Count,
				Sum:   ev.Sum,
			})
		default:
			return nil, fmt.Errorf("analyze: line %d: unknown event type %q", lineNo, ev.Ev)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("analyze: reading trace: %w", err)
	}

	byID := make(map[int]*Span, len(tr.Spans))
	for _, s := range tr.Spans {
		if byID[s.ID] != nil {
			return nil, fmt.Errorf("analyze: duplicate span id %d (%q and %q)", s.ID, byID[s.ID].Name, s.Name)
		}
		byID[s.ID] = s
	}
	for _, s := range tr.Spans {
		if p := byID[s.Parent]; s.Parent != 0 && p != nil {
			p.Children = append(p.Children, s)
		} else {
			tr.Roots = append(tr.Roots, s)
		}
	}
	for _, s := range tr.Spans {
		sort.Slice(s.Children, func(i, j int) bool { return s.Children[i].ID < s.Children[j].ID })
	}
	sort.Slice(tr.Roots, func(i, j int) bool { return tr.Roots[i].ID < tr.Roots[j].ID })
	return tr, nil
}

// SelfNs is the span's duration minus the time spent in its recorded
// children, floored at zero (concurrent children or clock granularity
// can make the raw difference slightly negative).
func (s *Span) SelfNs() int64 {
	self := s.DurNs
	for _, c := range s.Children {
		self -= c.DurNs
	}
	if self < 0 {
		return 0
	}
	return self
}

// PhaseStat aggregates every span sharing one name: how often the phase
// ran, its cumulative wall time, and its self time (cumulative minus
// time attributed to child phases).
type PhaseStat struct {
	Name    string
	Count   int
	TotalNs int64
	SelfNs  int64
}

// PhaseStats returns per-phase aggregates sorted by name. Count is
// timing-free and therefore deterministic; TotalNs and SelfNs carry
// wall-clock readings.
func (t *Trace) PhaseStats() []PhaseStat {
	agg := map[string]*PhaseStat{}
	for _, s := range t.Spans {
		st := agg[s.Name]
		if st == nil {
			st = &PhaseStat{Name: s.Name}
			agg[s.Name] = st
		}
		st.Count++
		st.TotalNs += s.DurNs
		st.SelfNs += s.SelfNs()
	}
	out := make([]PhaseStat, 0, len(agg))
	//mdglint:ignore determinism rows are collected and then sorted by name; output order is map-order independent
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
