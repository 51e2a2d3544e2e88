package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload,
		seed:     7,
		seconds:  0.3,
		trace:    trace,
		sz:       size{small: true},
		workDir:  filepath.Join(t.TempDir(), "work"),
		traceOut: filepath.Join(t.TempDir(), "trace.jsonl"),
	}
}

// benchmarkSpec reads the metric names BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer []string) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func metricNames(r *result) []string {
	var names []string
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("%s: reports %v, BENCHMARK.json declares %v", what, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: reports %v, BENCHMARK.json declares %v", what, got, want)
		}
	}
}

// TestSmoke runs every workload briefly at self-test scale, end to end
// and traced, each including the reference check, and holds the reported
// metrics to the names BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkSpec(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, _, err := run(smokeConfig(t, name, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d: %s", res.Correct, res.Failed, res.Attempted, res.mismatch)
			}
			sameNames(t, "end-to-end run", metricNames(res), endToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}

			cfg := smokeConfig(t, name, true)
			res, _, err = run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct=%v failed=%d: %s", res.Correct, res.Failed, res.mismatch)
			}
			sameNames(t, "traced run", metricNames(res), perLayer)
			if res.Metrics["trace.overhead_ratio"].Value <= 0 {
				t.Error("trace.overhead_ratio not measured")
			}
			if info, err := os.Stat(cfg.traceOut); err != nil || info.Size() == 0 {
				t.Errorf("no span dump at %s: %v", cfg.traceOut, err)
			}
			if _, err := os.Stat(cfg.workDir); !os.IsNotExist(err) {
				t.Errorf("work directory %s left behind: %v", cfg.workDir, err)
			}
		})
	}
}

// TestDeterminism: the same seed renders an identical corpus and yields
// identical notification counts; another seed renders another corpus.
func TestDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, err := newWorkload(name, 3, size{small: true})
			if err != nil {
				t.Fatal(err)
			}
			b, err := newWorkload(name, 3, size{small: true})
			if err != nil {
				t.Fatal(err)
			}
			c, err := newWorkload(name, 4, size{small: true})
			if err != nil {
				t.Fatal(err)
			}
			if a.digest() != b.digest() {
				t.Fatal("same seed, different corpus digest")
			}
			if a.digest() == c.digest() {
				t.Fatal("different seeds, same corpus digest")
			}
			n := min(len(a.ops), 3000)
			oa, err := replayReference(a, n)
			if err != nil {
				t.Fatal(err)
			}
			ob, err := replayReference(b, n)
			if err != nil {
				t.Fatal(err)
			}
			if d := oa.diff(ob); d != "" {
				t.Fatal("same seed, different notifications:", d)
			}
			if oa.total() == 0 || oa.reports == 0 {
				t.Fatalf("replay of %d ops notified nobody: %+v", n, oa)
			}
		})
	}
}
