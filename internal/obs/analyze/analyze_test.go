package analyze

import (
	"bytes"
	"strings"
	"testing"

	"mobicol/internal/obs"
)

// sample is a hand-written trace with known timing: root (id 1,
// 100ns) has children child (id 2, 30ns, one field) and leaf (id 3,
// 10ns); child has grandchild gc (id 4, 5ns). Children end before
// parents, so the file is in end order while ids are in start order.
const sample = `{"ev":"span","seq":1,"span":"gc","id":4,"parent":2,"t_ns":5,"dur_ns":5}
{"ev":"span","seq":2,"span":"child","id":2,"parent":1,"fields":{"n":12,"algo":"shdg"},"t_ns":0,"dur_ns":30}
{"ev":"span","seq":3,"span":"leaf","id":3,"parent":1,"t_ns":40,"dur_ns":10}
{"ev":"span","seq":4,"span":"root","id":1,"t_ns":0,"dur_ns":100}
{"ev":"metric","seq":5,"metric":"cover.calls","type":"counter","value":7}
{"ev":"metric","seq":6,"metric":"cover.gain","type":"hist","count":3,"sum":9.5,"min":1,"max":5,"bounds":[1,2],"counts":[1,1,1]}
`

func parseSample(t *testing.T) *Trace {
	t.Helper()
	tr, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestParseTree(t *testing.T) {
	tr := parseSample(t)
	if len(tr.Spans) != 4 || len(tr.Roots) != 1 {
		t.Fatalf("got %d spans, %d roots, want 4 and 1", len(tr.Spans), len(tr.Roots))
	}
	root := tr.Roots[0]
	if root.Name != "root" || len(root.Children) != 2 {
		t.Fatalf("root = %q with %d children", root.Name, len(root.Children))
	}
	if root.Children[0].Name != "child" || root.Children[1].Name != "leaf" {
		t.Fatalf("children out of id order: %q, %q", root.Children[0].Name, root.Children[1].Name)
	}
	child := root.Children[0]
	if len(child.Children) != 1 || child.Children[0].Name != "gc" {
		t.Fatalf("child's subtree wrong: %+v", child.Children)
	}
	// Fields must come back sorted by key with raw JSON values.
	if len(child.Fields) != 2 || child.Fields[0].Key != "algo" || child.Fields[0].Value != `"shdg"` ||
		child.Fields[1].Key != "n" || child.Fields[1].Value != "12" {
		t.Fatalf("child fields = %+v", child.Fields)
	}
	if len(tr.Metrics) != 2 || tr.Metrics[0].Name != "cover.calls" || tr.Metrics[0].Value != "7" {
		t.Fatalf("metrics = %+v", tr.Metrics)
	}
	if h := tr.Metrics[1]; h.Type != "hist" || h.Count != 3 || h.Sum != 9.5 {
		t.Fatalf("hist metric = %+v", h)
	}
}

func TestParseOrphanBecomesRoot(t *testing.T) {
	trace := `{"ev":"span","seq":1,"span":"stray","id":9,"parent":42,"t_ns":0,"dur_ns":1}`
	tr, err := Parse(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "stray" {
		t.Fatalf("orphan not promoted to root: %+v", tr.Roots)
	}
}

func TestParseRejectsCorruptTraces(t *testing.T) {
	cases := map[string]string{
		"duplicate id": `{"ev":"span","seq":1,"span":"a","id":1,"t_ns":0,"dur_ns":1}
{"ev":"span","seq":2,"span":"b","id":1,"t_ns":0,"dur_ns":1}`,
		"unknown event": `{"ev":"bogus","seq":1}`,
		"not json":      `{{{`,
	}
	for name, trace := range cases {
		if _, err := Parse(strings.NewReader(trace)); err == nil {
			t.Errorf("%s: Parse accepted a corrupt trace", name)
		}
	}
}

func TestSelfTimeAndPhaseStats(t *testing.T) {
	tr := parseSample(t)
	root := tr.Roots[0]
	if self := root.SelfNs(); self != 60 { // 100 - 30 - 10
		t.Errorf("root self = %d, want 60", self)
	}
	if self := root.Children[0].SelfNs(); self != 25 { // 30 - 5
		t.Errorf("child self = %d, want 25", self)
	}

	stats := tr.PhaseStats()
	want := []PhaseStat{
		{Name: "child", Count: 1, TotalNs: 30, SelfNs: 25},
		{Name: "gc", Count: 1, TotalNs: 5, SelfNs: 5},
		{Name: "leaf", Count: 1, TotalNs: 10, SelfNs: 10},
		{Name: "root", Count: 1, TotalNs: 100, SelfNs: 60},
	}
	if len(stats) != len(want) {
		t.Fatalf("got %d phases, want %d: %+v", len(stats), len(want), stats)
	}
	for i, w := range want {
		if stats[i] != w {
			t.Errorf("phase[%d] = %+v, want %+v", i, stats[i], w)
		}
	}
}

func TestSelfTimeFloorsAtZero(t *testing.T) {
	// Child longer than parent (possible with clock granularity): self
	// must clamp to 0, not go negative.
	trace := `{"ev":"span","seq":1,"span":"kid","id":2,"parent":1,"t_ns":0,"dur_ns":50}
{"ev":"span","seq":2,"span":"top","id":1,"t_ns":0,"dur_ns":40}`
	tr, err := Parse(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if self := tr.Roots[0].SelfNs(); self != 0 {
		t.Errorf("over-subscribed parent self = %d, want 0", self)
	}
}

func TestWriteFolded(t *testing.T) {
	tr := parseSample(t)
	var buf bytes.Buffer
	if err := WriteFolded(&buf, tr); err != nil {
		t.Fatal(err)
	}
	want := "root 60\nroot;child 25\nroot;child;gc 5\nroot;leaf 10\n"
	if buf.String() != want {
		t.Errorf("folded output:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestWriteFoldedMergesRepeatedStacks(t *testing.T) {
	trace := `{"ev":"span","seq":1,"span":"p","id":2,"parent":1,"t_ns":0,"dur_ns":3}
{"ev":"span","seq":2,"span":"p","id":3,"parent":1,"t_ns":3,"dur_ns":4}
{"ev":"span","seq":3,"span":"top","id":1,"t_ns":0,"dur_ns":7}`
	tr, err := Parse(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFolded(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "top;p 7\n" {
		t.Errorf("repeated stacks not merged: %q", got)
	}
}

// realTrace records an actual obs trace so the parser is exercised
// against the real encoder, not just hand-written JSON.
func realTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.New(&buf)
	root := tr.Start("plan")
	c := root.Child("cover")
	c.SetInt("chosen", 12)
	c.Count("cover.calls", 3)
	c.End()
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParseRealEncoderOutput(t *testing.T) {
	tr, err := Parse(bytes.NewReader(realTrace(t)))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "plan" || len(tr.Roots[0].Children) != 1 {
		t.Fatalf("real trace tree wrong: %+v", tr.Roots)
	}
	if len(tr.Metrics) != 1 || tr.Metrics[0].Name != "cover.calls" {
		t.Fatalf("real trace metrics wrong: %+v", tr.Metrics)
	}
}

func TestDiffEqualModuloTiming(t *testing.T) {
	// Same semantic content, different timing values: must compare equal.
	a := strings.ReplaceAll(sample, `"dur_ns":100`, `"dur_ns":999`)
	res, err := Diff(strings.NewReader(sample), strings.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal {
		t.Errorf("timing-only difference reported as divergence: %+v", res)
	}
	if res.ALines != 6 || res.BLines != 6 {
		t.Errorf("line counts = %d/%d, want 6/6", res.ALines, res.BLines)
	}
}

func TestDiffFindsSemanticDivergence(t *testing.T) {
	b := strings.Replace(sample, `"n":12`, `"n":13`, 1)
	res, err := Diff(strings.NewReader(sample), strings.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if res.Equal || res.Line != 2 {
		t.Fatalf("divergence not located: %+v", res)
	}
	if !strings.Contains(res.A, `"n":12`) || !strings.Contains(res.B, `"n":13`) {
		t.Errorf("diverging lines not reported: a=%q b=%q", res.A, res.B)
	}
}

func TestDiffLengthMismatch(t *testing.T) {
	short := strings.Join(strings.Split(sample, "\n")[:3], "\n")
	res, err := Diff(strings.NewReader(sample), strings.NewReader(short))
	if err != nil {
		t.Fatal(err)
	}
	if res.Equal || res.Line != 4 || res.B != "" || res.A == "" {
		t.Fatalf("truncated side not reported: %+v", res)
	}
}
