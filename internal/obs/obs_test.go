package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// runWorkload drives a fixed span/metric sequence against a fresh trace
// and returns the raw JSONL. Two calls must canonicalise identically.
func runWorkload(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	tr := New(&buf)
	root := tr.Start("plan")
	sp := root.Child("cover")
	sp.SetInt("chosen", 12)
	sp.SetFloat("ratio", 0.5)
	sp.SetStr("strategy", "sensor-sites")
	sp.Observe("cover.gain", 3)
	sp.Observe("cover.gain", 17)
	sp.Count("cover.iters", 2)
	sp.Gauge("planner.stops", 12)
	sp.End()
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func canonicalize(t *testing.T, raw []byte) string {
	t.Helper()
	var out []string
	for _, line := range bytes.Split(raw, []byte("\n")) {
		c, err := CanonicalLine(line)
		if err != nil {
			t.Fatalf("CanonicalLine(%q): %v", line, err)
		}
		if c != nil {
			out = append(out, string(c))
		}
	}
	return strings.Join(out, "\n")
}

func TestTraceDeterministicAfterCanonicalisation(t *testing.T) {
	a := canonicalize(t, runWorkload(t))
	b := canonicalize(t, runWorkload(t))
	if a != b {
		t.Fatalf("canonical traces differ:\n%s\n---\n%s", a, b)
	}
	if a == "" {
		t.Fatal("empty canonical trace")
	}
}

func TestTraceEventShape(t *testing.T) {
	raw := runWorkload(t)
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	// 2 span events + 1 counter + 1 gauge + 1 histogram.
	if len(lines) != 5 {
		t.Fatalf("want 5 events, got %d:\n%s", len(lines), raw)
	}
	var first map[string]any
	if err := json.Unmarshal(lines[0], &first); err != nil {
		t.Fatalf("event not JSON: %v", err)
	}
	// The child span ends first; it must reference its parent and carry
	// both timing keys.
	if first["ev"] != "span" || first["span"] != "cover" {
		t.Fatalf("first event = %v", first)
	}
	if first["parent"] != float64(1) {
		t.Fatalf("child parent = %v, want 1", first["parent"])
	}
	for _, k := range TimingKeys() {
		if _, ok := first[k]; !ok {
			t.Fatalf("span event missing timing key %q: %v", k, first)
		}
	}
	fields, ok := first["fields"].(map[string]any)
	if !ok || fields["chosen"] != float64(12) || fields["strategy"] != "sensor-sites" {
		t.Fatalf("span fields = %v", first["fields"])
	}
	// Metric events close the trace, sorted by name within each type.
	var names []string
	for _, l := range lines[2:] {
		var m map[string]any
		if err := json.Unmarshal(l, &m); err != nil {
			t.Fatalf("metric event not JSON: %v", err)
		}
		if m["ev"] != "metric" {
			t.Fatalf("tail event = %v", m)
		}
		names = append(names, m["metric"].(string))
	}
	want := []string{"cover.iters", "planner.stops", "cover.gain"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("metric order = %v, want %v", names, want)
		}
	}
}

func TestCanonicalLineStripsOnlyTimingKeys(t *testing.T) {
	in := []byte(`{"ev":"span","seq":1,"span":"x","id":1,"t_ns":123,"dur_ns":456}`)
	got, err := CanonicalLine(in)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"ev":"span","id":1,"seq":1,"span":"x"}`
	if string(got) != want {
		t.Fatalf("canonical = %s, want %s", got, want)
	}
	if c, err := CanonicalLine([]byte("  \n")); err != nil || c != nil {
		t.Fatalf("blank line: %v %v", c, err)
	}
	if _, err := CanonicalLine([]byte("not json")); err == nil {
		t.Fatal("want error for malformed line")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Trace
	sp := tr.Start("x")
	if sp != nil {
		t.Fatal("nil trace must yield nil span")
	}
	// None of these may panic.
	sp.SetInt("a", 1)
	sp.SetFloat("b", 2)
	sp.SetStr("c", "d")
	sp.Observe("h", 1)
	sp.Count("c", 1)
	sp.Gauge("g", 1)
	sp.Child("y").End()
	sp.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Summary() != nil {
		t.Fatal("nil trace aggregates must be empty")
	}
	var reg *Registry
	reg.Counter("c").Add(1)
	reg.Gauge("g").Set(1)
	reg.Histogram("h", nil).Observe(1)
	if reg.Snapshot().Len() != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestAggregateOnlyTrace(t *testing.T) {
	tr := New(nil) // -metrics without -trace
	sp := tr.Start("phase")
	sp.End()
	sp2 := tr.Start("phase")
	sp2.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	sum := tr.Summary()
	if len(sum) != 1 || sum[0].Name != "phase" || sum[0].Count != 2 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum[0].TotalNs < 0 {
		t.Fatalf("negative duration %d", sum[0].TotalNs)
	}
}

// failWriter fails after the first write so the error path is exercised.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	if f.n > 1 {
		return 0, errWrite
	}
	return len(p), nil
}

var errWrite = errSentinel("write failed")

type errSentinel string

func (e errSentinel) Error() string { return string(e) }

func TestTraceWriteErrorSurfacesOnClose(t *testing.T) {
	tr := New(&failWriter{})
	tr.Start("a").End()
	tr.Start("b").End() // second write fails
	if err := tr.Close(); err == nil {
		t.Fatal("want write error from Close")
	}
}

func TestProfilesLifecycle(t *testing.T) {
	dir := t.TempDir()
	p, err := StartProfiles(dir+"/cpu.pprof", dir+"/mem.pprof")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	// Nil and empty configurations are no-ops.
	var nilP *Profiles
	if err := nilP.Stop(); err != nil {
		t.Fatal(err)
	}
	empty, err := StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.Stop(); err != nil {
		t.Fatal(err)
	}
}
