package check

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

const sampleCoverOutput = `?   	mobicol/examples/quickstart	[no test files]
ok  	mobicol/internal/geom	0.012s	coverage: 91.3% of statements
ok  	mobicol/internal/rng	(cached)	coverage: 88.0% of statements
ok  	mobicol/internal/viz	0.004s	coverage: [no statements]
ok  	mobicol/internal/stats	0.002s
`

func TestParseCover(t *testing.T) {
	cov, err := ParseCover(strings.NewReader(sampleCoverOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"mobicol/internal/geom": 91.3,
		"mobicol/internal/rng":  88.0,
	}
	if len(cov) != len(want) {
		t.Fatalf("parsed %v, want %v", cov, want)
	}
	for p, v := range want {
		if math.Abs(cov[p]-v) > 1e-9 {
			t.Fatalf("%s: got %v, want %v", p, cov[p], v)
		}
	}
}

func TestParseCoverRejectsFailures(t *testing.T) {
	_, err := ParseCover(strings.NewReader("FAIL\tmobicol/internal/geom\t0.1s\n"))
	if err == nil {
		t.Fatal("failing run accepted")
	}
}

func TestParseCoverRejectsGarbagePercent(t *testing.T) {
	_, err := ParseCover(strings.NewReader("ok  \tpkg\t0.1s\tcoverage: nope% of statements\n"))
	if err == nil {
		t.Fatal("garbage percentage accepted")
	}
}

func TestRatchetRoundTrip(t *testing.T) {
	floors := map[string]float64{
		"mobicol/internal/geom": 90.0,
		"mobicol/internal/rng":  87.5,
	}
	var buf bytes.Buffer
	if err := WriteRatchet(&buf, floors); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRatchet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(floors) {
		t.Fatalf("round-trip %v, want %v", back, floors)
	}
	for p, v := range floors {
		if math.Abs(back[p]-v) > 1e-9 {
			t.Fatalf("%s: got %v, want %v", p, back[p], v)
		}
	}
	// Comments and blank lines are ignored.
	extra := "# comment\n\n" + buf.String()
	if _, err := ReadRatchet(strings.NewReader(extra)); err != nil {
		t.Fatal(err)
	}
}

func TestReadRatchetRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"pkg\n",
		"pkg one two\n",
		"pkg 12x\n",
		"pkg 120\n",
		"pkg -3\n",
	} {
		if _, err := ReadRatchet(strings.NewReader(bad)); err == nil {
			t.Fatalf("malformed ratchet %q accepted", bad)
		}
	}
}

func TestCompareRatchet(t *testing.T) {
	floors := map[string]float64{"a": 80, "b": 50, "gone": 10}
	got := map[string]float64{"a": 80.5, "b": 48.0, "new": 99}
	bad := CompareRatchet(got, floors)
	// b is 48.0 against floor 50 → violation; gone is missing → violation;
	// a passes; new is unpinned and never fails.
	if len(bad) != 2 {
		t.Fatalf("want 2 violations, got %v", bad)
	}
	if !strings.Contains(bad[0], "b:") || !strings.Contains(bad[1], "gone:") {
		t.Fatalf("unexpected violations %v", bad)
	}
	if v := CompareRatchet(map[string]float64{"a": 80, "b": 50, "gone": 10}, floors); v != nil {
		t.Fatalf("measurements at their floors should hold, got %v", v)
	}
	if v := CompareRatchet(map[string]float64{}, map[string]float64{}); v != nil {
		t.Fatalf("empty ratchet produced %v", v)
	}
}

func TestFloors(t *testing.T) {
	f := Floors(map[string]float64{"a": 91.38, "b": 0.4})
	if math.Abs(f["a"]-90.3) > 1e-9 {
		t.Fatalf("a floor %v, want 90.3", f["a"])
	}
	if f["b"] != 0 {
		t.Fatalf("b floor %v, want clamp to 0", f["b"])
	}
}
