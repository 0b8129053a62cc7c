package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"mobicol/internal/cover"
	"mobicol/internal/engine"
	"mobicol/internal/geom"
	"mobicol/internal/obs"
	"mobicol/internal/obs/analyze"
	"mobicol/internal/par"
	"mobicol/internal/replan"
	"mobicol/internal/tsp"
	"mobicol/internal/wsn"
)

// traced is the per-layer run. It sets the workload up once, with its
// deployments (and a warm workload's base plan) traced. Then, over a
// sample of the same inputs, it plans each input untraced and traced, in
// alternating order, and requires the two plans to be bit-identical. On
// cold inputs, and once on a warm workload's base network, it also calls
// the public cover and tsp entry points inside the benchmark's own spans.
// The spans stay in memory as obs JSONL; at the end they are written to
// traceDir, where mdgtrace reads them, and internal/obs/analyze turns
// them into the per-layer metrics.
func traced(ctx context.Context, w workload, cfg runConfig, log io.Writer) (outcome, error) {
	var buf bytes.Buffer
	tr := obs.New(&buf)
	plain := engine.Options{Pool: cfg.pool}
	withObs := plain
	withObs.Obs = tr
	in, err := w.prepare(ctx, cfg.seed, w.poolSize(cfg.seconds, cfg.maxOps), withObs)
	if err != nil {
		return outcome{}, fmt.Errorf("setup: %w", err)
	}

	var mismatches []error
	if in.deltas != nil {
		if err := layerCalls(tr, in.base, cfg.pool, false); err != nil {
			mismatches = append(mismatches, fmt.Errorf("base network: %w", err))
		}
	}
	var (
		attempted, failed int
		plainS, tracedS   float64
		warm              []replan.Stats
		sensors           []int
	)
	start := obs.StartWatch()
	for i := 0; i < in.len() && (i == 0 || elapsed(start) < cfg.seconds); i++ {
		attempted++
		if in.nets != nil {
			if err := layerCalls(tr, in.nets[i], cfg.pool, i%2 == 1); err != nil {
				mismatches = append(mismatches, fmt.Errorf("input %d: %w", i, err))
			}
		}
		// Alternate which twin runs first, so neither always pays for
		// the other's garbage.
		first, second := plain, withObs
		if i%2 == 1 {
			first, second = withObs, plain
		}
		a, errA := timedOp(ctx, in, i, first)
		b, errB := timedOp(ctx, in, i, second)
		in.release(i)
		if errA != nil || errB != nil {
			failed++
			mismatches = append(mismatches, fmt.Errorf("input %d: %v / %v", i, errA, errB))
			continue
		}
		if err := samePlan(a, b); err != nil {
			mismatches = append(mismatches, fmt.Errorf("input %d: traced and untraced plans differ: %w", i, err))
		}
		if i%2 == 1 {
			a, b = b, a
		}
		plainS += a.seconds
		tracedS += b.seconds
		if b.stats.Warm != nil {
			warm = append(warm, *b.stats.Warm)
			sensors = append(sensors, b.net.N())
		}
	}
	if err := tr.Close(); err != nil {
		return outcome{}, fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(cfg.traceDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
	if err := writeFile(path, buf.Bytes()); err != nil {
		return outcome{}, err
	}
	fmt.Fprintf(log, "trace: %d sampled inputs, %s (mdgtrace summary|tree|folded reads it)\n", attempted, path)
	for _, m := range mismatches {
		fmt.Fprintf(log, "check failed: %v\n", m)
	}

	t, err := analyze.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return outcome{}, err
	}
	v := layerValues(t, warm, sensors)
	v["obs.overhead_frac"] = ratio(tracedS, plainS) - 1
	for _, d := range perLayerMetrics() {
		if _, ok := v[d.name]; !ok {
			v[d.name] = 0
			fmt.Fprintf(log, "%s: the layer does not run on %s; reported as 0\n", d.name, w.name)
		}
	}
	return outcome{values: v, attempted: attempted, failed: failed, correct: len(mismatches) == 0}, nil
}

// opResult is one verified engine op and how long it took.
type opResult struct {
	net     *wsn.Network
	plan    *engine.Plan
	stats   engine.Stats
	seconds float64
}

// timedOp runs and verifies op i.
func timedOp(ctx context.Context, in *inputs, i int, opts engine.Options) (opResult, error) {
	start := obs.StartWatch()
	nw, pl, st, err := in.op(ctx, i, opts)
	r := opResult{net: nw, plan: pl, stats: st, seconds: elapsed(start)}
	if err == nil {
		err = verify(nw, pl, st)
	}
	return r, err
}

// samePlan requires two plans to be bit-identical: the same tour length
// bits, the same stops in the same order, the same assignment.
func samePlan(a, b opResult) error {
	//mdglint:ignore unitcheck bit comparison: Float64bits takes a raw float64
	la, lb := math.Float64bits(float64(a.stats.Length)), math.Float64bits(float64(b.stats.Length))
	if la != lb {
		return fmt.Errorf("tour length %v vs %v", a.stats.Length, b.stats.Length)
	}
	sa, sb := a.plan.Tour.Stops, b.plan.Tour.Stops
	if len(sa) != len(sb) {
		return fmt.Errorf("%d vs %d stops", len(sa), len(sb))
	}
	for k := range sa {
		if !samePoint(sa[k], sb[k]) {
			return fmt.Errorf("stop %d at %v vs %v", k, sa[k], sb[k])
		}
	}
	ua, ub := a.plan.Tour.UploadAt, b.plan.Tour.UploadAt
	if len(ua) != len(ub) {
		return fmt.Errorf("%d vs %d assignments", len(ua), len(ub))
	}
	for k := range ua {
		if ua[k] != ub[k] {
			return fmt.Errorf("sensor %d uploads at stop %d vs %d", k, ua[k], ub[k])
		}
	}
	return nil
}

func samePoint(p, q geom.Point) bool {
	return math.Float64bits(p.X) == math.Float64bits(q.X) && math.Float64bits(p.Y) == math.Float64bits(q.Y)
}

// layerCalls times, on one deployment and inside the benchmark's own
// spans, the public entry points the planner composes: the cover
// instance at the worker pool and at par.Seq() (whose outputs must
// match), the greedy cover, and the greedy-edge + 2-opt tour over sink +
// cover stops that refine rebuilds on every pass. seqFirst alternates
// which instance build goes first.
func layerCalls(tr *obs.Trace, nw *wsn.Network, pool par.Pool, seqFirst bool) error {
	sensors := nw.Positions()
	build := func(name string, p par.Pool) (*cover.Instance, error) {
		sp := tr.Start(name)
		defer sp.End()
		cands, err := cover.GenerateCandidates(sensors, nw.Field, nw.Range, cover.SensorSites, 0)
		if err != nil {
			return nil, err
		}
		inst := cover.NewInstancePool(sensors, cands, nw.Range, p)
		sp.SetInt("candidates", int64(inst.NumCandidates()))
		sp.SetInt("workers", int64(p.Size()))
		return inst, inst.Err()
	}
	var inst, seq *cover.Instance
	var errPool, errSeq error
	if seqFirst {
		seq, errSeq = build("cover.instance_seq", par.Seq())
		inst, errPool = build("cover.instance", pool)
	} else {
		inst, errPool = build("cover.instance", pool)
		seq, errSeq = build("cover.instance_seq", par.Seq())
	}
	if errPool != nil || errSeq != nil {
		return fmt.Errorf("cover instance: %v / %v", errPool, errSeq)
	}
	if err := sameInstance(inst, seq); err != nil {
		return fmt.Errorf("cover instance at %d workers differs from par.Seq(): %w", pool.Size(), err)
	}

	sp := tr.Start("cover.greedy")
	chosen, err := inst.Greedy(nw.Sink)
	sp.SetInt("chosen", int64(len(chosen)))
	sp.End()
	if err != nil {
		return err
	}

	pts := make([]geom.Point, 0, len(chosen)+1)
	pts = append(pts, nw.Sink)
	for _, c := range chosen {
		pts = append(pts, inst.Candidates[c])
	}
	sp = tr.Start("tsp.proxy_solve")
	tour := tsp.Solve(pts, tsp.Options{Construction: tsp.ConstructGreedy, TwoOpt: true})
	sp.SetInt("n", int64(len(pts)))
	//mdglint:ignore unitcheck obs boundary: trace fields carry raw numbers
	sp.SetFloat("len", float64(tour.Length(pts)))
	sp.End()
	return nil
}

// sameInstance requires two cover instances to be identical: universe,
// candidate positions bit for bit, and every cover list.
func sameInstance(a, b *cover.Instance) error {
	if a.Universe != b.Universe || a.NumCandidates() != b.NumCandidates() {
		return fmt.Errorf("%d/%d vs %d/%d sensors/candidates", a.Universe, a.NumCandidates(), b.Universe, b.NumCandidates())
	}
	for c := 0; c < a.NumCandidates(); c++ {
		if !samePoint(a.Candidates[c], b.Candidates[c]) {
			return fmt.Errorf("candidate %d at %v vs %v", c, a.Candidates[c], b.Candidates[c])
		}
		ca, cb := a.Cover(c), b.Cover(c)
		if len(ca) != len(cb) {
			return fmt.Errorf("candidate %d covers %d vs %d sensors", c, len(ca), len(cb))
		}
		for k := range ca {
			if ca[k] != cb[k] {
				return fmt.Errorf("candidate %d cover differs at %d", c, k)
			}
		}
	}
	return nil
}

// layerValues computes the per-layer metrics the trace holds. A metric
// whose layer left no span is absent; the caller reports it as 0.
func layerValues(t *analyze.Trace, warm []replan.Stats, sensors []int) map[string]float64 {
	byName := map[string][]*analyze.Span{}
	for _, s := range t.Spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	v := map[string]float64{}
	// seconds lists the spans' durations, or their self times when self
	// is set (the planner's phase spans nest).
	seconds := func(span string, self bool) []float64 {
		var xs []float64
		for _, s := range byName[span] {
			ns := s.DurNs
			if self {
				ns = s.SelfNs()
			}
			xs = append(xs, float64(ns)/1e9)
		}
		return xs
	}
	p50 := func(name, span string, self bool) {
		if xs := seconds(span, self); len(xs) > 0 {
			v[name] = median(xs)
		}
	}
	// avg sets name to the mean of one field over the spans.
	avg := func(name, span, key string) {
		var xs []float64
		for _, s := range byName[span] {
			xs = append(xs, field(s, key))
		}
		if len(xs) > 0 {
			v[name] = mean(xs)
		}
	}

	p50("wsn.deploy_s", "wsn.deploy", false)
	p50("cover.instance_s_p50", "cover.instance", false)
	p50("cover.greedy_s_p50", "cover.greedy", false)
	avg("cover.candidates_mean", "cover.instance", "candidates")
	avg("cover.cover_stops_mean", "cover.greedy", "chosen")
	p50("tsp.proxy_solve_s_p50", "tsp.proxy_solve", false)
	if pooled, ok := v["cover.instance_s_p50"]; ok {
		v["par.instance_speedup"] = ratio(median(seconds("cover.instance_seq", false)), pooled)
	}

	p50("shdgp.refine_s_p50", "refine", true)
	avg("shdgp.refine_passes_mean", "refine", "passes")
	p50("tsp.construct_s_p50", "construct", true)
	planTSP(v, byName["plan"])
	if n := float64(len(byName["tsp"])); n > 0 {
		v["tsp.twoopt_moves_mean"] = counter(t, "tsp.twoopt_moves") / n
		v["tsp.oropt_moves_mean"] = counter(t, "tsp.oropt_moves") / n
	}

	p50("replan.apply_s_p50", "replan.apply", false)
	for _, phase := range []string{"carry", "rehome", "recover", "splice", "improve"} {
		p50("replan."+phase+"_s_p50", phase, true)
	}
	if len(warm) > 0 {
		var dirty, fresh, moves, kept []float64
		for k, st := range warm {
			dirty = append(dirty, float64(st.Dirty()))
			fresh = append(fresh, float64(st.NewStops))
			moves = append(moves, float64(st.Moves))
			kept = append(kept, ratio(float64(st.Kept), float64(sensors[k])))
		}
		v["replan.dirty_mean"] = mean(dirty)
		v["replan.new_stops_mean"] = mean(fresh)
		v["replan.moves_mean"] = mean(moves)
		v["replan.kept_frac"] = mean(kept)
	}
	return v
}

// planTSP walks each cold plan's span tree for the per-plan numbers: the
// share of cover stops refine dropped, time in 2-opt and Or-opt passes
// (2-opt runs twice), and the share of the constructed tour's length the
// local search removed.
func planTSP(v map[string]float64, plans []*analyze.Span) {
	var dropped, twoopt, oropt, gain []float64
	for _, p := range plans {
		var coverStops, refineDropped float64
		for _, c := range p.Children {
			switch c.Name {
			case "cover":
				coverStops = field(c, "chosen")
			case "refine":
				refineDropped = field(c, "dropped")
			case "tsp":
				var two, or, built, final float64
				for _, s := range c.Children {
					switch s.Name {
					case "construct":
						built = field(s, "len")
					case "twoopt":
						two += float64(s.DurNs) / 1e9
					case "oropt":
						or += float64(s.DurNs) / 1e9
					}
					final = field(s, "len")
				}
				twoopt = append(twoopt, two)
				oropt = append(oropt, or)
				gain = append(gain, ratio(built-final, built))
			}
		}
		if coverStops > 0 {
			dropped = append(dropped, refineDropped/coverStops)
		}
	}
	if len(gain) > 0 {
		v["tsp.twoopt_s_p50"] = median(twoopt)
		v["tsp.oropt_s_p50"] = median(oropt)
		v["tsp.localsearch_gain_frac"] = mean(gain)
	}
	if len(dropped) > 0 {
		v["shdgp.refine_dropped_frac"] = mean(dropped)
	}
}

// field reads a numeric span field, 0 when absent.
func field(s *analyze.Span, key string) float64 {
	for _, f := range s.Fields {
		if f.Key == key {
			x, err := strconv.ParseFloat(f.Value, 64)
			if err == nil {
				return x
			}
		}
	}
	return 0
}

// counter reads a counter from the trace's metric tail, 0 when absent.
func counter(t *analyze.Trace, name string) float64 {
	for _, m := range t.Metrics {
		if m.Name == name && m.Type == "counter" {
			x, err := strconv.ParseFloat(m.Value, 64)
			if err == nil {
				return x
			}
		}
	}
	return 0
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
