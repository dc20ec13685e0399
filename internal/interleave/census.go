package interleave

import (
	"errors"
	"fmt"
	"strings"
	"text/tabwriter"

	"ssi/ssidb"
)

// CensusRow counts what Serializable SI did to one script set under one
// detector and read-only declaration: how many of the set's schedules lost a
// transaction to an unsafe abort, and how many of those aborts broke a cycle
// that plain SI would have let through.
type CensusRow struct {
	Set      Set
	Detector ssidb.Detector
	ReadOnly []string // scripts run as declared read-only transactions

	Schedules    int
	AllCommitted int
	// An aborting schedule is Necessary if the same schedule at plain SI —
	// where nothing aborts for an rw-edge — commits a history with an MVSG
	// cycle, and a FalsePositive if that history is serializable.
	Necessary     int
	FalsePositive int
	// NonSerializable counts executions at SerializableSI whose own history
	// has a cycle. Anything but zero is an engine bug.
	NonSerializable int
	// Victims counts aborted transactions by script, in script order.
	Victims []int
	// BeforeCommit counts the aborted transactions that fell before any
	// transaction of their schedule had committed: aborts that implicate no
	// committed transaction, which identical retries can repeat forever.
	BeforeCommit int
}

// Census runs every schedule of the set twice — at plain SI, and at
// SerializableSI under det with the named scripts declared read-only — and
// classifies each schedule. It fails if a script blocks on a lock or ends in
// anything but an unsafe abort: the classification is about rw-edges alone,
// and a set with write-write conflicts has no SI twin to compare with.
func Census(set Set, det ssidb.Detector, readOnly ...string) (CensusRow, error) {
	row := CensusRow{Set: set, Detector: det, ReadOnly: readOnly, Victims: make([]int, len(set.Scripts))}
	scripts, err := set.WithReadOnly(readOnly...)
	if err != nil {
		return row, err
	}
	counts := make([]int, len(scripts))
	for i, s := range scripts {
		counts[i] = len(s.Steps) + 1
	}
	mkDB := NewDB(det)
	execute := func(iso ssidb.Isolation, schedule []int) (Outcome, error) {
		db, hist := mkDB()
		o := Run(db, hist, iso, scripts, schedule)
		if o.Blocked {
			return o, fmt.Errorf("set %s at %v, schedule %v: a step blocked", set.Name, iso, o)
		}
		for i, err := range o.Errs {
			if err != nil && !errors.Is(err, ssidb.ErrUnsafe) {
				return o, fmt.Errorf("set %s at %v, schedule %v: script %s: %w", set.Name, iso, o, scripts[i].Name, err)
			}
		}
		return o, nil
	}
	for _, schedule := range Schedules(counts) {
		twin, err := execute(ssidb.SnapshotIsolation, schedule)
		if err != nil {
			return row, err
		}
		if twin.Committed() != len(scripts) {
			return row, fmt.Errorf("set %s, schedule %v: plain SI aborted a transaction", set.Name, twin)
		}
		twinSerializable, _ := twin.History.Serializable()

		o, err := execute(ssidb.SerializableSI, schedule)
		if err != nil {
			return row, err
		}
		row.Schedules++
		if ok, _ := o.History.Serializable(); !ok {
			row.NonSerializable++
		}
		switch {
		case o.Committed() == len(scripts):
			row.AllCommitted++
		case twinSerializable:
			row.FalsePositive++
		default:
			row.Necessary++
		}
		for i, err := range o.Errs {
			if err != nil {
				row.Victims[i]++
				if o.BeforeCommit[i] {
					row.BeforeCommit++
				}
			}
		}
	}
	return row, nil
}

// DetectorName is the detector's name in the census table (and on
// cmd/interleave's command line).
func DetectorName(det ssidb.Detector) string {
	if det == ssidb.DetectorBasic {
		return "basic"
	}
	return "precise"
}

// FormatCensus renders rows as the aligned table checked in as
// testdata/census.golden.
func FormatCensus(rows []CensusRow) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "set\tdetector\tdeclared-ro\tschedules\tall-committed\tnecessary\tfalse-positive\tnon-serializable\tbefore-any-commit\tvictims")
	for _, r := range rows {
		ro := "-"
		if len(r.ReadOnly) > 0 {
			ro = strings.Join(r.ReadOnly, ",")
		}
		var victims []string
		for i, n := range r.Victims {
			victims = append(victims, fmt.Sprintf("%s=%d", r.Set.Scripts[i].Name, n))
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n", r.Set.Name, DetectorName(r.Detector), ro,
			r.Schedules, r.AllCommitted, r.Necessary, r.FalsePositive, r.NonSerializable, r.BeforeCommit, strings.Join(victims, " "))
	}
	w.Flush()
	return b.String()
}
