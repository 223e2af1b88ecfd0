package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// The self-test runs every workload at tiny scale through the same code
// paths as the benchmark: `cd perfbench && go test .`

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tinyRun runs one workload at tiny scale for a single iteration and
// returns the result line it prints, decoded.
func tinyRun(t *testing.T, w workload, traced bool, want map[string]string) result {
	t.Helper()
	r := &run{w: w, seed: 3, scale: tiny, dir: t.TempDir(), traced: traced, want: want}
	res, err := r.execute(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	var out bytes.Buffer
	if err := printResult(&out, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not the result: %v", w.name, err)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d: %v", w.name, last.Correct, last.Attempted, last.Failed, res.detail["problems"])
	}
	return last
}

// TestWorkloadsReportEveryMetric runs each workload untraced and traced
// at tiny scale, against reference digests taken at one worker, one
// shard and collapse off, and checks that each prints exactly the
// metrics BENCHMARK.json names, with their units.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, b.Workloads[i].Name, w.name)
		}
		ref, err := referenceDigests(context.Background(), w, 3, tiny, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			res := tinyRun(t, w, traced, ref)
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", w.name, traced, m.Name, got, m.Unit)
				}
			}
			if traced {
				checkLayerCounts(t, w, res.Metrics)
			}
		}
	}
}

// checkLayerCounts pins what each workload must exercise: simd rows on
// office-sweep, a quotient on metro-symmetric, a trace everywhere.
func checkLayerCounts(t *testing.T, w workload, m map[string]metric) {
	t.Helper()
	cells := m["campaign.cells"].Value
	if m["trace.events"].Value <= 0 || cells <= 0 {
		t.Errorf("%s: trace.events %v, campaign.cells %v", w.name, m["trace.events"].Value, cells)
	}
	if got := m["simd.sse_rows"].Value; w.viaSimd != (got == cells) {
		t.Errorf("%s: simd.sse_rows %v for %v cells", w.name, got, cells)
	}
	if got := m["collapse.classes"].Value; (w.name == "metro-symmetric") != (got > 0) {
		t.Errorf("%s: collapse.classes %v", w.name, got)
	}
	// The job writes its status and artifacts after its last row, so the
	// tail is never empty; on office-sweep it spans the SSE done event.
	if got := m["campaign.tail_s"].Value; got <= 0 {
		t.Errorf("%s: campaign.tail_s %v", w.name, got)
	}
}

// TestLayerTableNamesEveryLayerMetric keeps layers.json, the table of
// which end-to-end metric each layer metric should move, in step with
// BENCHMARK.json.
func TestLayerTableNamesEveryLayerMetric(t *testing.T) {
	b := readBenchmarkFile(t)
	buf, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var table struct {
		Layers []struct {
			Metric string `json:"metric"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(buf, &table); err != nil {
		t.Fatal(err)
	}
	if len(table.Layers) != len(b.PerLayer) {
		t.Fatalf("layers.json has %d rows, BENCHMARK.json %d per-layer metrics", len(table.Layers), len(b.PerLayer))
	}
	for i, m := range b.PerLayer {
		if table.Layers[i].Metric != m.Name {
			t.Errorf("row %d: layers.json %q, BENCHMARK.json %q", i, table.Layers[i].Metric, m.Name)
		}
	}
}

// TestGateRejectsTamperedArtifact is the gate's own mutation check: one
// flipped byte in one artifact must fail the run, whether the digest is
// pinned or only compared across iterations.
func TestGateRejectsTamperedArtifact(t *testing.T) {
	w, err := workloadByName("office-sweep")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceDigests(context.Background(), w, 3, tiny, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := &run{w: w, seed: 3, scale: tiny, dir: t.TempDir(), yaml: []byte(w.spec(3, tiny))}
	if _, _, err := r.setup(); err != nil {
		t.Fatal(err)
	}
	defer r.closeServer()
	it, err := r.iterate(context.Background(), 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	tampered := newIteration()
	*tampered = *it
	tampered.artifacts = map[string][]byte{}
	for name, buf := range it.artifacts {
		tampered.artifacts[name] = append([]byte(nil), buf...)
	}
	tampered.artifacts["results.json"][10] ^= 1

	if v := r.verdict([]*iteration{it, it}); !v.Correct {
		t.Fatalf("identical iterations rejected: %v", v.detail["problems"])
	}
	if v := r.verdict([]*iteration{it, tampered}); v.Correct {
		t.Error("iterations with different artifacts accepted")
	}
	r.want = ref
	if v := r.verdict([]*iteration{it}); !v.Correct {
		t.Fatalf("artifacts rejected against the reference digests: %v", v.detail["problems"])
	}
	if v := r.verdict([]*iteration{tampered}); v.Correct {
		t.Error("artifact that differs from the pinned digest accepted")
	}
}
