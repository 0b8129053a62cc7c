package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"mobicol/internal/engine"
	"mobicol/internal/geom"
	"mobicol/internal/obs/analyze"
	"mobicol/internal/par"
	"mobicol/internal/wsn"
)

// benchmarkFile mirrors BENCHMARK.json; decoding it with unknown fields
// disallowed also pins its key set.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// tiny shrinks a workload for tests: large-n deployments become 300
// sensors at the same density; the paper grid is already small.
func tiny(w workload) workload {
	if len(w.grid) == 1 {
		w.grid = []wsn.Config{paperDensity(300)}
	}
	return w
}

func tinyConfig(t *testing.T, maxOps int) runConfig {
	return runConfig{seed: 7, seconds: 0.05, pool: par.Workers(2), maxOps: maxOps, traceDir: t.TempDir()}
}

// lastLine decodes the result on the last line of a run's output.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

// TestBenchmarkFileMatchesDeclarations pins BENCHMARK.json to the
// workloads and metrics the program declares.
func TestBenchmarkFileMatchesDeclarations(t *testing.T) {
	bf := readBenchmarkFile(t)
	ws := workloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file %+v, program %q %q", i, bf.Workloads[i], w.name, w.why)
		}
	}
	e2e := endToEndMetrics()
	if len(bf.EndToEnd) != len(e2e) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(e2e))
	}
	for i, d := range e2e {
		f := bf.EndToEnd[i]
		if f.Name != d.name || f.Unit != d.unit || f.Better != d.better || f.Bound != d.bound {
			t.Errorf("end-to-end %d: file %+v, program %+v", i, f, d)
		}
	}
	layers := perLayerMetrics()
	if len(bf.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bf.PerLayer), len(layers))
	}
	for i, d := range layers {
		f := bf.PerLayer[i]
		if f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
			t.Errorf("per-layer %d: file %+v, program %+v", i, f, d)
		}
	}
}

// TestEveryMetricPrintedWithUnit runs every workload at tiny size, a few
// ops each, untraced and traced, and requires the last output line to
// carry exactly the metrics BENCHMARK.json names, each with its unit.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	bf := readBenchmarkFile(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, 3)
			var out bytes.Buffer
			res, err := runWorkload(context.Background(), tiny(w), cfg, trace, &out)
			if err != nil {
				t.Fatalf("%s trace=%t: %v\n%s", w.name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s", w.name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(want[trace]) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want[trace]))
			}
			for name, unit := range want[trace] {
				got, ok := res.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %q", w.name, trace, name, got, unit)
				}
			}
			if trace {
				traceReadable(t, filepath.Join(cfg.traceDir, "trace", w.name+"-seed7.jsonl"))
			}
		}
	}
}

// traceReadable requires the traced run's file to parse as an obs trace
// holding the benchmark's own spans next to the planner's.
func traceReadable(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := analyze.Parse(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	names := map[string]bool{}
	for _, s := range tr.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"wsn.deploy", "cover.instance", "cover.instance_seq", "cover.greedy", "tsp.proxy_solve", "plan", "refine"} {
		if !names[want] {
			t.Errorf("%s: no %q span", path, want)
		}
	}
}

// faulty wraps a registered planner and breaks every second plan it
// returns, in a way only the oracle notices.
type faulty struct {
	name  string
	inner engine.Planner
	calls atomic.Int64
	// stale returns a copy of the scenario's previous plan instead of a
	// broken one: valid for the network before the delta, not after it.
	stale bool
}

func (f *faulty) Name() string { return f.name }

func (f *faulty) Plan(ctx context.Context, sc engine.Scenario, opts engine.Options) (*engine.Plan, engine.Stats, error) {
	pl, st, err := f.inner.Plan(ctx, sc, opts)
	if err != nil || f.calls.Add(1)%2 == 1 {
		return pl, st, err
	}
	tour := *pl.Tour
	if f.stale {
		tour = *sc.Prev
		st.Length, st.Stops = tour.Length(), len(tour.Stops)
	}
	tour.Stops = append([]geom.Point(nil), tour.Stops...)
	tour.UploadAt = append([]int(nil), tour.UploadAt...)
	if !f.stale {
		tour.UploadAt[0] = -1
	}
	return &engine.Plan{Tour: &tour, Algorithm: pl.Algorithm}, st, nil
}

// TestOracleInvalidPlanCountsAsFailed runs a cold and a warm workload
// through a planner that breaks every second plan: the broken ops count
// as failed, contribute no latency sample, and make the run incorrect.
func TestOracleInvalidPlanCountsAsFailed(t *testing.T) {
	for _, tc := range []struct {
		workload string
		stale    bool
	}{{"dense-10k", false}, {"warm-100k", true}} {
		w, err := workloadByName(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		w = tiny(w)
		inner, err := engine.Select(w.planner)
		if err != nil {
			t.Fatal(err)
		}
		f := &faulty{name: "planbench-faulty", inner: inner, stale: tc.stale}
		engine.Register(f.name, f)
		w.planner, w.warmups = f.name, 0
		if tc.stale {
			// A delta large enough to remove and add sensors, so a stale
			// plan cannot pass for the applied network by chance.
			w.deltaFrac = 0.1
		}

		cfg := tinyConfig(t, 4)
		in, err := w.prepare(context.Background(), cfg.seed, 4, engine.Options{Pool: cfg.pool})
		if err != nil {
			engine.Unregister(f.name)
			t.Fatal(err)
		}
		l := timedLoop(context.Background(), in, 1e9, engine.Options{Pool: cfg.pool})
		if l.attempted != 4 || l.failed != 2 || len(l.times) != 2 || l.firstErr == nil {
			t.Errorf("%s: attempted=%d failed=%d timed=%d err=%v, want 4, 2, 2 and an error",
				tc.workload, l.attempted, l.failed, len(l.times), l.firstErr)
		}

		f.calls.Store(0)
		cfg.seconds = 1e9 // run all four inputs
		var out bytes.Buffer
		res, err := runWorkload(context.Background(), w, cfg, false, &out)
		engine.Unregister(f.name)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Attempted != 4 || res.Failed != 2 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d, want false, 4 and 2\n%s",
				tc.workload, res.Correct, res.Attempted, res.Failed, out.String())
		}
	}
}

// TestSameSeedSameInputs: the inputs, and so every deterministic metric,
// depend only on the seed.
func TestSameSeedSameInputs(t *testing.T) {
	w := tiny(workloads()[0])
	var tours []float64
	for k := 0; k < 2; k++ {
		var out bytes.Buffer
		res, err := runWorkload(context.Background(), w, tinyConfig(t, 5), false, &out)
		if err != nil {
			t.Fatal(err)
		}
		tours = append(tours, res.Metrics["tour_km_mean"].Value)
	}
	if tours[0] <= 0 || tours[0] != tours[1] {
		t.Errorf("tour_km_mean %v across two runs of one seed", tours)
	}
}

// TestRunPrintsResultLast drives the command line: a short paper-sweep
// run exits 0 with its result on the last line of standard output.
func TestRunPrintsResultLast(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"--workload", "paper-sweep", "--seed", "3", "--seconds", "0.05", "--trace", "0", "--out", t.TempDir()}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	res := lastLine(t, out.String())
	if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(endToEndMetrics()) {
		t.Errorf("result %+v", res)
	}
}

// TestUsageErrors: a bad invocation exits non-zero and prints no result.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "paper-sweep", "--trace", "2"},
		{"--workload", "paper-sweep", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
