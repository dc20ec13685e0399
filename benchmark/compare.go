package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// bound is one end_to_end entry of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // share of the old median by which the metric may get worse

	ungated bool // judged and printed, but never the reason for a failing exit status
}

// ungatedBounds are the end-to-end metrics BENCHMARK.json leaves out because
// they do not repeat on the reference box. -compare judges them all the same,
// against the widest bound a gate may use, so that a reader sees throughput,
// tail latency and CPU beside the gated rows — mostly as "unresolved" on a
// noisy day, which is the honest answer.
var ungatedBounds = []bound{
	{Name: "commits_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, ungated: true},
	{Name: "txn_p99_us", Unit: "us", Better: "lower", Bound: 0.25, ungated: true},
	{Name: "cpu_us_per_commit", Unit: "us", Better: "lower", Bound: 0.25, ungated: true},
}

func readBounds(path string) ([]bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	bounds := doc.EndToEnd
	for _, u := range ungatedBounds {
		if !slices.ContainsFunc(bounds, func(b bound) bool { return b.Name == u.Name }) {
			bounds = append(bounds, u)
		}
	}
	return bounds, nil
}

// Verdicts of one metric on one workload, new against old.
const (
	verdictBetter     = "better"
	verdictWithin     = "within-bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// comparison is one row of the report.
type comparison struct {
	workload, metric     string
	oldQ1, oldMed, oldQ3 float64
	newQ1, newMed, newQ3 float64
	ungated              bool
	worsening            float64 // (new−old)/old in the metric's bad direction; negative = improved
	spread               float64 // the wider of the two sides' (q3−q1)/median
	bound                float64
	verdict              string
}

// judge compares the runs of one metric on one workload. The spread decides
// first: when either side's own runs scatter (interquartile range over
// median) by more than the bound, a difference of the size the bound guards
// cannot be told from noise and the row is unresolved. Otherwise the medians
// decide: worse beyond the bound, better when the improvement exceeds the
// old side's own interquartile range, within-bound in between.
func judge(b bound, oldVals, newVals []float64) comparison {
	c := comparison{metric: b.Name, bound: b.Bound, ungated: b.ungated}
	c.oldQ1, c.oldMed, c.oldQ3 = quartiles(oldVals)
	c.newQ1, c.newMed, c.newQ3 = quartiles(newVals)
	rel := func(d, base float64) float64 {
		if d == 0 {
			return 0
		}
		return d / math.Abs(base) // ±Inf off a zero base: any change from 0 is unbounded
	}
	c.worsening = rel(c.newMed-c.oldMed, c.oldMed)
	if b.Better == "higher" {
		c.worsening = -c.worsening
	}
	c.spread = math.Max(rel(c.oldQ3-c.oldQ1, c.oldMed), rel(c.newQ3-c.newQ1, c.newMed))
	switch {
	case c.spread > b.Bound:
		c.verdict = verdictUnresolved
	case c.worsening > b.Bound:
		c.verdict = verdictWorse
	case c.worsening < 0 && math.Abs(c.newMed-c.oldMed) > c.oldQ3-c.oldQ1:
		c.verdict = verdictBetter
	default:
		c.verdict = verdictWithin
	}
	return c
}

// compareDocs judges every end-to-end metric on every workload present in
// both documents, in the documents' workload order.
func compareDocs(bounds []bound, oldDoc, newDoc *recordDoc) []comparison {
	collect := func(doc *recordDoc) (order []string, vals map[string]map[string][]float64) {
		vals = map[string]map[string][]float64{}
		for _, r := range doc.Runs {
			if r.Trace {
				continue
			}
			if vals[r.Workload] == nil {
				vals[r.Workload] = map[string][]float64{}
				order = append(order, r.Workload)
			}
			// Info too: the baseline sets were recorded while txn_p99_us was
			// kept there.
			for _, m := range []map[string]float64{r.Metrics, r.Info} {
				for k, v := range m {
					vals[r.Workload][k] = append(vals[r.Workload][k], v)
				}
			}
		}
		return order, vals
	}
	order, oldVals := collect(oldDoc)
	_, newVals := collect(newDoc)
	var out []comparison
	for _, w := range order {
		for _, b := range bounds {
			o, n := oldVals[w][b.Name], newVals[w][b.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			c := judge(b, o, n)
			c.workload = w
			out = append(out, c)
		}
	}
	return out
}

// compareFiles prints the report as a markdown table and returns the exit
// status: 1 when any gated row is worse, 2 when the inputs cannot be read.
func compareFiles(w io.Writer, boundsPath, oldPath, newPath string) int {
	bounds, err := readBounds(boundsPath)
	var docs [2]*recordDoc
	for i, path := range []string{oldPath, newPath} {
		if err == nil {
			docs[i], err = readRecord(path)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	oldDoc, newDoc := docs[0], docs[1]
	rows := compareDocs(bounds, oldDoc, newDoc)
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: the two files share no untraced workload")
		return 2
	}
	fmt.Fprintf(w, "old: %s (commit %s, %s, nproc %d, GOMAXPROCS %d, wal_fs %s)\n", oldPath, oldDoc.Commit, oldDoc.Go, oldDoc.NProc, oldDoc.GOMAXPROCS, oldDoc.WALFS)
	fmt.Fprintf(w, "new: %s (commit %s, %s, nproc %d, GOMAXPROCS %d, wal_fs %s)\n\n", newPath, newDoc.Commit, newDoc.Go, newDoc.NProc, newDoc.GOMAXPROCS, newDoc.WALFS)
	fmt.Fprintln(w, "| workload | metric | old median [q1, q3] | new median [q1, q3] | worse by | spread | bound | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	counts := map[string]int{}
	for _, c := range rows {
		verdict := c.verdict
		if c.ungated {
			verdict += " (not gated)"
		} else {
			counts[c.verdict]++
		}
		fmt.Fprintf(w, "| %s | %s | %.5g [%.5g, %.5g] | %.5g [%.5g, %.5g] | %+.1f%% | %.1f%% | %.0f%% | %s |\n",
			c.workload, c.metric, c.oldMed, c.oldQ1, c.oldQ3, c.newMed, c.newQ1, c.newQ3,
			100*c.worsening, 100*c.spread, 100*c.bound, verdict)
	}
	fmt.Fprintf(w, "\ngated rows: %d better, %d within-bound, %d worse, %d unresolved\n",
		counts[verdictBetter], counts[verdictWithin], counts[verdictWorse], counts[verdictUnresolved])
	if counts[verdictWorse] > 0 {
		return 1
	}
	return 0
}
