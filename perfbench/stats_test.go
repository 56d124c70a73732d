package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		in := append([]float64(nil), c.in...)
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Fatalf("median reordered its input: %v", c.in)
			}
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 1, 7, 3, 5, 9, 2, 8, 4, 6}, 2.75, 8.25},
		{[]float64{5}, 5, 5},
	} {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{5, 50},    // too few samples: the median
		{19, 50},   // still fewer than 20
		{20, 50},   // 10 beyond the median
		{40, 75},   // 10 beyond p75
		{80, 87},   // floor(87.5)
		{100, 90},  // exactly 10 beyond p90
		{1000, 99}, // 10 beyond p99
		{2000, 99}, // whole percentiles only
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// The rule holds with nearest-rank percentiles: at least ten samples
	// lie strictly above the reported one.
	for n := 20; n <= 500; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v := percentile(xs, tailPercentile(n))
		if beyond := n - 1 - int(v); beyond < 10 {
			t.Fatalf("n=%d: p%d leaves %d samples beyond it", n, tailPercentile(n), beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct {
		p    int
		want float64
	}{{0, 10}, {20, 10}, {50, 30}, {80, 40}, {81, 50}, {100, 50}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p%d) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples should be 0")
	}
}

func TestUnattributedFrac(t *testing.T) {
	for _, c := range []struct {
		wall  float64
		parts []float64
		want  float64
	}{
		{100, []float64{60, 30}, 0.1},
		{100, []float64{100}, 0},
		{100, []float64{80, 40}, -0.2}, // overlapping intervals show as negative
		{0, []float64{1}, 0},
	} {
		if got := unattributedFrac(c.wall, c.parts...); !near(got, c.want) {
			t.Errorf("unattributedFrac(%v, %v) = %v, want %v", c.wall, c.parts, got, c.want)
		}
	}
}

// TestTablesMatchBenchmarkJSON keeps BENCHMARK.json, which the harness
// running the benchmark reads, in step with the metric and workload tables
// the code reports.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the code %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the code", w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %q: why is %d characters, over 200", w.Name, len(w.Why))
		}
	}
}
