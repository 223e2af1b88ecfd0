// Command perfbench is the repository's benchmark. It drives one
// workload — a campaign spec generated from --seed — as a closed loop from
// a single client: submit the campaign, wait for every artifact, repeat
// until --seconds have passed. Run it through run.sh from the repository
// root:
//
//	bash perfbench/run.sh --workload metro-shuffled --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics listed in
// BENCHMARK.json, as medians over the loop's iterations. With --trace 1,
// after one warm-up iteration, it runs the campaign at one worker and one
// shard, then at the workload's own settings untraced and traced, and
// finally re-executes every cell by calling the layers' public functions
// directly; it reports the per-layer metrics and writes the run's spans,
// with their self times, to .bench_build/traces/. perfbench/layers.json
// records which end-to-end metric each per-layer metric should move.
// --cpuprofile <file> writes a CPU profile of the whole run, for reading
// with `go tool pprof`.
//
// Every run checks its outputs: the artifacts of every iteration must be
// byte-identical, must match the pinned digests where the seed has them,
// no cell or request may fail, and a traced re-execution must reproduce
// the campaign's rows. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
)

// A run sets up in setupBatches batches of at least setupBatchS seconds
// each; setup_s is the median over the batches of the mean setup time.
const (
	setupBatches = 21
	setupBatchS  = 0.02
)

func main() { os.Exit(benchmark()) }

// benchmark runs the command line's request and returns the exit code:
// 0 for a correct run, 1 when a correctness check failed, 2 when the
// benchmark could not run at all.
func benchmark() int {
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed the workload's spec is generated from")
	secs := flag.Float64("seconds", 20, "how long the closed loop runs")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	reference := flag.Bool("reference", false, "print the reference digests of the workload's artifacts for --seed and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.Parse()
	if flag.NArg() > 0 {
		return fail("unexpected arguments %q", flag.Args())
	}
	if *traced != 0 && *traced != 1 {
		return fail("--trace must be 0 or 1, got %d", *traced)
	}
	w, err := workloadByName(*name)
	if err != nil {
		return fail("%v", err)
	}
	wd, err := os.Getwd()
	if err != nil {
		return fail("%v", err)
	}
	build := filepath.Join(wd, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return fail("%v", err)
	}
	scratch, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return fail("scratch directory: %v", err)
	}
	defer os.RemoveAll(scratch)
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail("%v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail("%v", err)
		}
		defer pprof.StopCPUProfile()
	}

	if *reference {
		d, err := referenceDigests(context.Background(), w, *seed, full, scratch)
		if err != nil {
			return fail("%v", err)
		}
		fmt.Printf("\t{%q, %d}: {%q, %q, %q},\n", w.name, *seed, d["summary.csv"], d["results.json"], d["power.csv"])
		return 0
	}

	r := &run{
		w: w, seed: *seed, seconds: *secs, scale: full, dir: scratch,
		traced: *traced == 1, want: pinnedDigests(w.name, *seed),
	}
	res, err := r.execute(context.Background())
	if err != nil {
		return fail("%s: %v", w.name, err)
	}
	if r.traced {
		dir := filepath.Join(build, "traces")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", w.name, *seed, r.tr.run))
		if err := os.MkdirAll(dir, 0o755); err == nil {
			err = r.tr.write(path)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		} else {
			fmt.Printf("spans: %s\n", path)
		}
	}
	if err := printResult(os.Stdout, res); err != nil {
		return fail("%v", err)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	return 2
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict: the last line of its output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// detail is printed on the line before the result: host shape, work
	// counts, per-iteration samples and every check that failed.
	detail map[string]any
}

func printResult(f io.Writer, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "%-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if d, err := json.Marshal(res.detail); err == nil {
		fmt.Fprintf(f, "detail %s\n", d)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(out))
	return err
}

// hostShape records what the numbers were measured on. steal_s is the
// machine-wide CPU steal time over the run: a noisy run shows it.
func hostShape(workers, shards int, steal float64) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"workers":    workers,
		"shards":     shards,
		"steal_s":    steal,
	}
}

// problems collects the failed checks of a run.
type problems []string

func (p *problems) addf(format string, args ...any) {
	*p = append(*p, fmt.Sprintf(format, args...))
}

func (p problems) String() string { return strings.Join(p, "; ") }
