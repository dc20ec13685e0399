package harness

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"time"
	"unicode/utf8"
)

// Sweep is one scenario's measured cells with the parameters they share: what
// Print renders and what is marshalled as JSON.
type Sweep struct {
	Name     string
	Title    string
	Note     string `json:",omitempty"`
	Duration time.Duration
	Warmup   time.Duration
	Trials   int
	Cells    []Result
}

// Print renders the sweep as one table, a line per cell: its coordinates,
// commits/s, every abort class once as a rate per commit, the commit-latency
// percentiles and, for auxiliary workers, their commits/s and mean duration.
// Columns are as wide as their widest cell, and one that every cell leaves
// empty (no shard axis, a single trial, …) is omitted. Under each cell come
// the counters that moved during its windows.
func (s Sweep) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", s.Name, s.Title)
	if s.Note != "" {
		fmt.Fprintf(w, "   %s\n", s.Note)
	}
	header := []string{"iso", "mpl", "shards", "durable", "commits/s", "±95%",
		"deadlock", "conflict", "unsafe", "timeout", "rollback", "other",
		"p50", "p99", "p999", "max", "aux/s", "aux-mean"}
	lines := [][]string{header}
	when := func(ok bool, cell string) string {
		if ok {
			return cell
		}
		return ""
	}
	for _, r := range s.Cells {
		rate := func(n uint64) string { return pct(float64(n) / float64(max(r.Commits, 1))) }
		lines = append(lines, []string{r.Iso, fmt.Sprint(r.MPL), when(r.Shards > 0, fmt.Sprint(r.Shards)), when(r.Durable, "yes"),
			fmt.Sprintf("%.0f", r.TPS), when(r.TPSCI95 > 0, fmt.Sprintf("%.0f", r.TPSCI95)),
			rate(r.Deadlocks), rate(r.Conflicts), rate(r.Unsafe), rate(r.Timeouts), rate(r.Rollbacks), rate(r.Other),
			short(r.Latency.P50), short(r.Latency.P99), short(r.Latency.P999), short(r.Latency.Max),
			when(r.Aux > 0, fmt.Sprintf("%.1f", float64(r.AuxCommits)/r.Elapsed.Seconds())),
			when(r.Aux > 0, short(r.AuxTime/time.Duration(max(r.AuxCommits, 1))))})
	}
	width := make([]int, len(header))
	for _, line := range lines[1:] {
		for i, cell := range line {
			if cell != "" {
				width[i] = max(width[i], utf8.RuneCountInString(cell), utf8.RuneCountInString(header[i]))
			}
		}
	}
	for n, line := range lines {
		var b strings.Builder
		for i, cell := range line {
			if width[i] > 0 {
				fmt.Fprintf(&b, "%-*s  ", width[i], cell)
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		if n == 0 {
			continue
		}
		r := s.Cells[n-1]
		if moved := nonZero(reflect.ValueOf(r.Stats), nil); len(moved) > 0 {
			fmt.Fprintf(w, "    %s\n", strings.Join(moved, " "))
		}
		if r.Latency.Dropped > 0 {
			fmt.Fprintf(w, "    samples dropped: %d of %d commits (buffers full; the percentiles cover each window's start)\n",
				r.Latency.Dropped, r.Commits)
		}
	}
	fmt.Fprintln(w)
}

// nonZero appends name=value for every field of v that is not its zero value.
func nonZero(v reflect.Value, out []string) []string {
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); {
		case f.Kind() == reflect.Struct:
			out = nonZero(f, out)
		case f.IsZero():
		case f.Type() == reflect.TypeOf(time.Duration(0)):
			out = append(out, fmt.Sprintf("%s=%s", v.Type().Field(i).Name, short(time.Duration(f.Int()))))
		case f.Kind() == reflect.Float64:
			out = append(out, fmt.Sprintf("%s=%.2f", v.Type().Field(i).Name, f.Float()))
		default:
			out = append(out, fmt.Sprintf("%s=%v", v.Type().Field(i).Name, f.Interface()))
		}
	}
	return out
}

// short prints a duration to three significant digits.
func short(d time.Duration) string {
	unit := time.Nanosecond
	for d >= 1000*unit && unit < time.Second {
		unit *= 10
	}
	return d.Round(unit).String()
}

func pct(x float64) string {
	switch {
	case x == 0:
		return "0"
	case x < 0.0095:
		return fmt.Sprintf("%.1f%%", x*100)
	default:
		return fmt.Sprintf("%.0f%%", x*100)
	}
}
