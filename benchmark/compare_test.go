package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := bound{Name: "txn_p99_us", Better: "lower", Bound: 0.10}
	higher := bound{Name: "commits_per_s", Better: "higher", Bound: 0.10}
	tight := func(center float64) []float64 { // spread 2% of the median
		return []float64{center * 0.99, center * 0.995, center, center * 1.005, center * 1.01}
	}
	wide := func(center float64) []float64 { // spread 45% of the median
		return []float64{center * 0.7, center * 0.8, center, center * 1.2, center * 1.3}
	}
	cases := []struct {
		name     string
		b        bound
		old, new []float64
		want     string
	}{
		{"same", lower, tight(100), tight(100), verdictWithin},
		{"slower within the bound", lower, tight(100), tight(108), verdictWithin},
		{"slower beyond the bound", lower, tight(100), tight(112), verdictWorse},
		{"faster than the old spread", lower, tight(100), tight(90), verdictBetter},
		{"faster by less than the old spread", lower, tight(100), tight(99.5), verdictWithin},
		{"throughput down beyond the bound", higher, tight(50_000), tight(44_000), verdictWorse},
		{"throughput down within the bound", higher, tight(50_000), tight(46_000), verdictWithin},
		{"throughput up", higher, tight(50_000), tight(56_000), verdictBetter},
		{"old side too noisy to tell", lower, wide(100), tight(130), verdictUnresolved},
		{"new side too noisy to tell", higher, tight(50_000), wide(30_000), verdictUnresolved},
		{"constant metric", bound{Name: "attempts_per_commit", Better: "lower", Bound: 0.03}, []float64{1, 1, 1}, []float64{1, 1, 1}, verdictWithin},
	}
	for _, c := range cases {
		if got := judge(c.b, c.old, c.new); got.verdict != c.want {
			t.Errorf("%s: verdict %s (worse by %.3f, spread %.3f), want %s", c.name, got.verdict, got.worsening, got.spread, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	doc := func(alloc, cps []float64) *recordDoc {
		d := &recordDoc{Commit: "test"}
		for i := range alloc {
			d.Runs = append(d.Runs,
				&result{Workload: "kv-uniform", Metrics: map[string]float64{"alloc_bytes_per_commit": alloc[i], "commits_per_s": cps[i]}},
				&result{Workload: "kv-uniform", Trace: true, Metrics: map[string]float64{"alloc_bytes_per_commit": 1}}, // traced runs are ignored
			)
		}
		return d
	}
	bounds := write("bounds.json", map[string]any{"end_to_end": []bound{
		{Name: "alloc_bytes_per_commit", Unit: "B", Better: "lower", Bound: 0.05},
	}})
	base := write("old.json", doc([]float64{584, 586, 588}, []float64{60_000, 60_500, 61_000}))
	same := write("same.json", doc([]float64{585, 586, 587}, []float64{60_200, 60_400, 60_900}))
	fat := write("fat.json", doc([]float64{684, 686, 688}, []float64{60_200, 60_400, 60_900}))
	slow := write("slow.json", doc([]float64{585, 586, 587}, []float64{40_000, 40_500, 41_000}))

	var out bytes.Buffer
	if status := compareFiles(&out, bounds, base, same); status != 0 {
		t.Errorf("identical code: exit status %d\n%s", status, out.String())
	}
	if !strings.Contains(out.String(), "0 worse, 0 unresolved") {
		t.Errorf("identical code: report says\n%s", out.String())
	}
	out.Reset()
	if status := compareFiles(&out, bounds, base, fat); status != 1 {
		t.Errorf("allocation regression: exit status %d, want 1\n%s", status, out.String())
	}
	if !strings.Contains(out.String(), "| kv-uniform | alloc_bytes_per_commit |") || !strings.Contains(out.String(), "| worse |") {
		t.Errorf("allocation regression: report says\n%s", out.String())
	}
	// A metric BENCHMARK.json does not gate is judged and shown, but does not
	// fail the comparison.
	out.Reset()
	if status := compareFiles(&out, bounds, base, slow); status != 0 {
		t.Errorf("ungated throughput regression: exit status %d, want 0\n%s", status, out.String())
	}
	if !strings.Contains(out.String(), "| kv-uniform | commits_per_s |") || !strings.Contains(out.String(), "| worse (not gated) |") {
		t.Errorf("ungated throughput regression: report says\n%s", out.String())
	}
	if status := compareFiles(&out, bounds, base, filepath.Join(dir, "missing.json")); status != 2 {
		t.Errorf("missing file: exit status %d, want 2", status)
	}
}
