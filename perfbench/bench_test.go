package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists in
// step with the metrics the program prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestQuartilesMatchPython checks quartiles against Python's
// statistics.quantiles(v, n=4), which the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{4, 1}, 0.25, 4.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 2.5, 7.5},
	} {
		q1, q3 := quartiles(c.v)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestRegistryQuantile(t *testing.T) {
	var d regDump
	raw := `{"histograms": {
		"storage.sda.service_us": {"count": 4, "max": 900, "buckets": [{"le": 50, "n": 1}, {"le": 100, "n": 2}, {"le": "inf", "n": 1}]},
		"storage.ndb.service_us": {"count": 6, "max": 70, "buckets": [{"le": 50, "n": 3}, {"le": 100, "n": 3}, {"le": "inf", "n": 0}]},
		"storage.sda.x.service_us": {"count": 100, "max": 1, "buckets": [{"le": 1, "n": 100}]}
	}}`
	if err := json.Unmarshal([]byte(raw), &d); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ q, want float64 }{{0.4, 50}, {0.5, 100}, {0.9, 100}, {0.99, 900}} {
		if got := d.quantile("storage.*.service_us", c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestLayerValuesCoverPerLayer catches a per-layer metric that is listed
// but never computed (it would print as a silent 0), or the reverse.
func TestLayerValuesCoverPerLayer(t *testing.T) {
	got := layerValues(traced{})
	for _, m := range perLayer {
		if _, ok := got[m.name]; !ok {
			t.Errorf("%s is listed but not computed", m.name)
		}
	}
	if len(got) != len(perLayer) {
		t.Errorf("computed %d metrics, listed %d", len(got), len(perLayer))
	}
}
