package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	"insomnia/internal/campaign"
	"insomnia/internal/dsl"
)

// run is one invocation of the benchmark on one workload and seed.
type run struct {
	w       workload
	seed    int64
	seconds float64
	scale   scale
	dir     string // scratch directory, removed by the caller
	traced  bool
	// want holds the pinned artifact digests by name; nil when the seed
	// has none pinned.
	want map[string]string
	tr   *tracer // spans of a traced run; nil when untraced

	yaml []byte
	plan *campaign.Plan
	srv  *server
}

// execute sets the workload up, runs it and checks its outputs.
func (r *run) execute(ctx context.Context) (*result, error) {
	steal0 := stealSeconds()
	r.yaml = []byte(r.w.spec(r.seed, r.scale))
	if r.traced {
		r.tr = newTracer(strconv.FormatInt(time.Now().UnixNano(), 36))
	}
	setups, compiles, err := r.setup()
	defer r.closeServer()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	var res *result
	if r.traced {
		res, err = r.layers(ctx, median(compiles))
	} else {
		res, err = r.endToEnd(ctx, setups)
	}
	if err != nil {
		return nil, err
	}
	res.detail["host"] = hostShape(r.plan.Spec.Workers, r.shards(), stealSeconds()-steal0)
	res.detail["workload"], res.detail["seed"], res.detail["traced"] = r.w.name, r.seed, r.traced
	return res, nil
}

// shards is the engine shard count the campaign gives each simulation:
// the cores its worker pool leaves idle.
func (r *run) shards() int {
	workers := min(r.plan.Spec.Workers, len(r.plan.Cells))
	if per := runtime.GOMAXPROCS(0) / workers; per >= 2 {
		return per
	}
	return 1
}

// setup parses and compiles the spec over and over — for simd workloads
// also starting a server until it answers a POST. It runs setupBatches
// batches, each repeating the setup until the batch has taken
// setupBatchS, and returns per batch the mean setup time and the mean
// parse+compile time. One rep takes tens of microseconds on the metros,
// too short to time alone. On a shared host the speed of such a loop
// still drifts by a third from batch to batch, in CPU time as much as in
// wall time, so setup_s is the least steady metric. The last server
// started stays up for the run.
func (r *run) setup() (setups, compiles []float64, err error) {
	root := r.tr.begin("setup", 0)
	defer r.tr.end(root)
	for b := 0; b < setupBatches; b++ {
		reps, compile := 0, 0.0
		t0 := time.Now()
		for reps < 3 || time.Since(t0).Seconds() < setupBatchS {
			r.closeServer()
			c0 := time.Now()
			s := r.tr.begin("dsl.parse", root)
			spec, err := dsl.ParseSpec(r.yaml)
			r.tr.end(s)
			if err != nil {
				return nil, nil, err
			}
			s = r.tr.begin("campaign.compile", root)
			r.plan, err = campaign.Compile(spec)
			r.tr.end(s)
			if err != nil {
				return nil, nil, err
			}
			compile += time.Since(c0).Seconds()
			if r.w.viaSimd {
				// Every start reuses one data directory: the probe POST
				// leaves no job in it, and hundreds of directories made
				// and removed per run would keep the file system busy
				// into the next run's setup.
				s = r.tr.begin("simd.start", root)
				r.srv, err = startServer(filepath.Join(r.dir, "simd"))
				r.tr.end(s)
				if err != nil {
					return nil, nil, err
				}
			}
			reps++
		}
		setups = append(setups, time.Since(t0).Seconds()/float64(reps))
		compiles = append(compiles, compile/float64(reps))
	}
	return setups, compiles, nil
}

func (r *run) closeServer() {
	if r.srv != nil {
		r.srv.close()
		r.srv = nil
	}
}

// iterate submits the campaign once at the workload's own settings.
func (r *run) iterate(ctx context.Context, i int, tr *tracer, parent int) (*iteration, error) {
	runtime.GC() // every iteration starts from the same heap state
	if r.w.viaSimd {
		return r.srv.runHTTP(ctx, r.yaml, tr, parent)
	}
	out := filepath.Join(r.dir, fmt.Sprintf("iter-%d", i))
	defer os.RemoveAll(out)
	return runDirect(ctx, r.plan.Spec, campaign.Options{OutDir: out}, tr, parent)
}

// clientHours is the simulated client-hours of one campaign: every cell
// counts at its full scenario size, collapsed or not.
func (r *run) clientHours() float64 {
	sp := r.plan.Spec
	return float64(len(r.plan.Cells)) * float64(sp.Trace.Clients) * sp.Duration / 3600
}

// endToEnd runs the closed loop and reports the medians. A first,
// unmeasured iteration warms the process up: heap growth and first-touch
// page faults would otherwise land on whichever iteration comes first.
// The measured loop starts another iteration only while one more of
// average length still fits in r.seconds, so a run never overshoots by a
// whole slow iteration; it always measures at least one.
func (r *run) endToEnd(ctx context.Context, setups []float64) (*result, error) {
	warm, err := r.iterate(ctx, 0, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("warm-up iteration: %w", err)
	}
	var iters []*iteration
	start := time.Now()
	for i := 1; ; i++ {
		it, err := r.iterate(ctx, i, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("iteration %d: %w", i, err)
		}
		iters = append(iters, it)
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(len(iters)) > r.seconds {
			break
		}
	}
	col := func(f func(*iteration) float64) []float64 {
		xs := make([]float64, len(iters))
		for i, it := range iters {
			xs[i] = f(it)
		}
		return xs
	}
	ch := r.clientHours()
	res := r.verdict(append([]*iteration{warm}, iters...))
	res.Metrics = map[string]metric{
		"setup_s":            {median(setups), "s"},
		"wall_s":             {median(col(func(it *iteration) float64 { return it.wall })), "s"},
		"first_row_s":        {median(col(func(it *iteration) float64 { return it.firstRow })), "s"},
		"cpu_s":              {median(col(func(it *iteration) float64 { return it.cpu })), "s"},
		"client_hours_per_s": {median(col(func(it *iteration) float64 { return ch / it.wall })), "client-h/s"},
		"alloc_mb":           {median(col(func(it *iteration) float64 { return it.allocMB })), "MB"},
		"peak_rss_mb":        {peakRSSMB(), "MB"},
	}
	res.detail["measured_iterations"] = len(iters)
	res.detail["samples"] = map[string][]float64{
		"wall_s":      col(func(it *iteration) float64 { return it.wall }),
		"first_row_s": col(func(it *iteration) float64 { return it.firstRow }),
		"cpu_s":       col(func(it *iteration) float64 { return it.cpu }),
		"setup_s":     setups,
	}
	return res, nil
}

// layers is the traced run. After one warm-up iteration it runs the
// campaign at one worker and one shard, then at the workload's settings
// untraced and traced, and finally re-executes every cell layer by layer.
func (r *run) layers(ctx context.Context, compileS float64) (*result, error) {
	var iters []*iteration
	step := func(name string, f func(tr *tracer, parent int) (*iteration, error)) (*iteration, error) {
		root := r.tr.begin(name, 0)
		it, err := f(r.tr, root)
		r.tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		iters = append(iters, it)
		return it, nil
	}
	if _, err := step("warm-up", func(*tracer, int) (*iteration, error) { return r.iterate(ctx, 0, nil, 0) }); err != nil {
		return nil, err
	}
	ref, err := step("campaign workers=1 shards=1", func(tr *tracer, parent int) (*iteration, error) {
		out := filepath.Join(r.dir, "reference")
		defer os.RemoveAll(out)
		return runDirect(ctx, r.plan.Spec, campaign.Options{OutDir: out, Workers: 1, Shards: 1}, tr, parent)
	})
	if err != nil {
		return nil, err
	}
	untraced, err := step("untraced", func(*tracer, int) (*iteration, error) { return r.iterate(ctx, 1, nil, 0) })
	if err != nil {
		return nil, err
	}
	traced, err := step("campaign", func(tr *tracer, parent int) (*iteration, error) { return r.iterate(ctx, 2, tr, parent) })
	if err != nil {
		return nil, err
	}
	root := r.tr.begin("reexec", 0)
	l, err := reexec(r.plan, traced.rows, r.tr, root)
	r.tr.end(root)
	res := r.verdict(iters)
	if err != nil {
		// A re-execution that disagrees with the campaign is a failed
		// check, not a crash: report it with the metrics we have.
		res.Correct = false
		res.detail["problems"] = fmt.Sprintf("%v; %v", res.detail["problems"], err)
		l = &layerRun{}
	}

	perScheme := map[string][3]float64{} // run_s, alloc_mb, events
	maxRun := 0.0
	for _, c := range l.runs() {
		v := perScheme[c.scheme]
		perScheme[c.scheme] = [3]float64{v[0] + c.runS, v[1] + c.allocMB, v[2] + float64(c.events)}
	}
	simS := 0.0
	for _, c := range l.cells {
		maxRun = max(maxRun, c.runS)
		simS += c.runS
	}
	sseRows := 0
	if r.w.viaSimd {
		sseRows = traced.rowEvents
	}
	m := map[string]metric{
		"dsl.compile_s":       {compileS, "s"},
		"trace.generate_s":    {l.generateS, "s"},
		"trace.alloc_mb":      {l.traceAllocMB, "MB"},
		"trace.events":        {float64(l.traceEvents), "count"},
		"topology.build_s":    {l.topologyS, "s"},
		"collapse.build_s":    {l.collapseS, "s"},
		"collapse.classes":    {float64(l.classes), "count"},
		"sim.run_s.max":       {maxRun, "s"},
		"sim.shard_speedup":   {l.shardSpeedup, "ratio"},
		"kswitch.fabric_s":    {l.fabricS(), "s"},
		"campaign.cells":      {float64(len(r.plan.Cells)), "count"},
		"campaign.overhead_s": {ref.wall - l.buildS - simS, "s"},
		"campaign.tail_s":     {traced.tail, "s"},
		"runner.core_util":    {traced.cpu / (traced.wall * float64(runtime.GOMAXPROCS(0))), "ratio"},
		"simd.submit_s":       {traced.submit, "s"},
		"simd.first_event_s":  {traced.firstRow, "s"},
		"simd.artifact_get_s": {traced.artifactGet, "s"},
		"simd.sse_rows":       {float64(sseRows), "count"},
		"simd.artifact_bytes": {float64(traced.artifactBytes()), "bytes"},
		"tracing.overhead_s":  {traced.wall - untraced.wall, "s"},
	}
	for _, sc := range reportedSchemes {
		v := perScheme[sc]
		key := strings.ReplaceAll(sc, "+", "_")
		m["sim.run_s."+key] = metric{v[0], "s"}
		m["sim.alloc_mb."+key] = metric{v[1], "MB"}
		eps := 0.0
		if v[0] > 0 {
			eps = v[2] / v[0]
		}
		m["sim.events_per_s."+key] = metric{eps, "1/s"}
	}
	res.Metrics = m
	all := map[string]any{}
	for sc, v := range perScheme {
		all[sc] = map[string]float64{"run_s": v[0], "alloc_mb": v[1], "events": v[2]}
	}
	res.detail["sim_by_scheme"] = all
	res.detail["wall_s"] = map[string]float64{"untraced": untraced.wall, "traced": traced.wall, "workers1_shards1": ref.wall}
	return res, nil
}

// reportedSchemes are the schemes whose sim.* metrics every workload
// reports: each workload runs them, or (SoI+full-switch on
// metro-shuffled) the re-execution adds the run.
var reportedSchemes = []string{"no-sleep", "SoI", "SoI+full-switch"}

// verdict applies the correctness gate to a run's campaign iterations:
// no failed cell or request, a row for every cell, byte-identical
// artifacts across the iterations, and the pinned digests where the
// seed has them.
func (r *run) verdict(iters []*iteration) *result {
	res := &result{detail: map[string]any{}}
	var p problems
	var first map[string]string
	bytes, rows, classes := 0, 0, 0
	for i, it := range iters {
		res.Attempted += len(r.plan.Cells) + it.requests
		res.Failed += it.failedCells + it.failedReqs
		if it.failedCells+it.failedReqs > 0 {
			p.addf("iteration %d: %d failed cells (%s), %d failed requests", i, it.failedCells, it.cellErr, it.failedReqs)
		}
		if len(it.rows) != len(r.plan.Cells) {
			p.addf("iteration %d: %d rows for %d cells", i, len(it.rows), len(r.plan.Cells))
		}
		d := digests(it.artifacts)
		if i == 0 {
			first = d
			bytes, rows = it.artifactBytes(), it.rowEvents
			for _, row := range it.rows {
				classes = max(classes, row.CollapsedClasses)
			}
			for _, name := range artifactNames {
				if d[name] == "" {
					p.addf("no %s", name)
				}
			}
			for _, name := range artifactNames {
				if r.want != nil && d[name] != r.want[name] {
					p.addf("%s digest %.12s differs from the pinned %.12s", name, d[name], r.want[name])
				}
			}
			res.detail["pinned"] = r.want != nil
		} else if !sameDigests(first, d) {
			p.addf("iteration %d artifacts differ from iteration 0", i)
		}
	}
	res.Correct = len(p) == 0
	res.detail["problems"] = p.String()
	res.detail["iterations"] = len(iters)
	res.detail["counts"] = map[string]any{
		"cells":            len(r.plan.Cells),
		"row_events":       rows,
		"artifact_bytes":   bytes,
		"collapse_classes": classes,
		"failed_frac":      float64(res.Failed) / float64(max(res.Attempted, 1)),
	}
	res.detail["digests"] = first
	return res
}

var artifactNames = []string{"summary.csv", "results.json", "power.csv"}

func digests(arts map[string][]byte) map[string]string {
	d := map[string]string{}
	for name, buf := range arts {
		sum := sha256.Sum256(buf)
		d[name] = hex.EncodeToString(sum[:])
	}
	return d
}

func sameDigests(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// referenceDigests runs the workload's campaign once at one worker and
// one shard and returns its artifact digests. It then re-runs every seed
// alone with collapse off and checks that each row equals the row the
// campaign produced, so the digests also stand for full simulation. One
// seed at a time keeps a single full-scale trace in memory, where a
// collapse-off campaign over all seeds would hold every seed's trace.
func referenceDigests(ctx context.Context, w workload, seed int64, sc scale, dir string) (map[string]string, error) {
	spec, err := dsl.ParseSpec([]byte(w.spec(seed, sc)))
	if err != nil {
		return nil, err
	}
	ref := func(spec dsl.Spec, collapse string) (*iteration, error) {
		out := filepath.Join(dir, "reference")
		defer os.RemoveAll(out)
		it, err := runDirect(ctx, spec, campaign.Options{OutDir: out, Workers: 1, Shards: 1, Collapse: collapse}, nil, 0)
		if err == nil && it.failedCells > 0 {
			err = fmt.Errorf("%d failed cells, first %s", it.failedCells, it.cellErr)
		}
		return it, err
	}
	all, err := ref(spec, "")
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	want := map[string]campaign.Row{}
	for _, row := range all.rows {
		want[rowKey(row)] = row
	}
	for _, s := range spec.Seeds {
		one := spec
		one.Seeds = []int64{s}
		it, err := ref(one, "off")
		if err != nil {
			return nil, fmt.Errorf("reference run of seed %d, collapse off: %w", s, err)
		}
		for _, row := range it.rows {
			if !reflect.DeepEqual(row, want[rowKey(row)]) {
				return nil, fmt.Errorf("seed %d, collapse off: row %s differs from the campaign's", s, rowKey(row))
			}
		}
	}
	return digests(all.artifacts), nil
}

func rowKey(r campaign.Row) string { return fmt.Sprintf("%s|%s|%d", r.Scenario, r.Scheme, r.Seed) }
