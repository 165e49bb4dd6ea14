package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"vids/vbench/workload"
)

// TestMetricListsMatchBenchmarkJSON pins the result-line metric names
// to the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(b.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("end_to_end %v, the benchmark reports %v", got, endToEnd)
	}
	if got := names(b.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("per_layer %v, the benchmark reports %v", got, perLayer)
	}
	if got := names(b.Workloads); !slices.Equal(got, workload.Names()) {
		t.Errorf("workloads %v, the generator has %v", got, workload.Names())
	}
}

func TestDiff(t *testing.T) {
	k := func(id string) workload.Key { return workload.Key{Type: "bye-dos", ID: id} }
	want := map[workload.Key]int{k("a"): 2, k("b"): 1}
	got := map[workload.Key]int{k("a"): 1, k("c"): 3}
	if m, f := diff(want, got); m != 2 || f != 3 {
		t.Errorf("diff = %d missed, %d false; want 2, 3", m, f)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("p50 = %v, want 3", q)
	}
	if q := quantile(xs, 0.99); q != 5 {
		t.Errorf("p99 = %v, want 5", q)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
}
