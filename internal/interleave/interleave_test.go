package interleave

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ssi/internal/sercheck"
	"ssi/ssidb"
)

// mustSet returns the scripts of a set of the shared table.
func mustSet(t *testing.T, name string) []Script {
	t.Helper()
	set, ok := SetByName(name)
	if !ok {
		t.Fatalf("no set %q", name)
	}
	return set.Scripts
}

func TestSchedulesCount(t *testing.T) {
	if n := len(Schedules([]int{2, 2})); n != 6 {
		t.Fatalf("Schedules(2,2) = %d, want 6", n)
	}
	if n := len(Schedules([]int{2, 3, 2})); n != 210 {
		t.Fatalf("Schedules(2,3,2) = %d, want 210", n)
	}
	// Every schedule uses each script the right number of times.
	for _, s := range Schedules([]int{1, 2}) {
		c := [2]int{}
		for _, i := range s {
			c[i]++
		}
		if c[0] != 1 || c[1] != 2 {
			t.Fatalf("bad schedule %v", s)
		}
	}
}

func TestExhaustiveWriteSkewSI(t *testing.T) {
	// Under plain SI every interleaving commits both transactions, and some
	// interleavings are non-serializable — the anomaly the paper targets.
	anomalies := 0
	runs := 0
	Explore(NewDB(ssidb.DetectorPrecise), ssidb.SnapshotIsolation, mustSet(t, "writeskew"), func(o Outcome) {
		runs++
		for i, err := range o.Errs {
			if err != nil {
				t.Fatalf("schedule %v: SI aborted script %d: %v", o, i, err)
			}
		}
		if ok, _ := o.History.Serializable(); !ok {
			anomalies++
		}
	})
	if runs != 70 { // 8!/(4!4!)
		t.Fatalf("explored %d interleavings, want 70", runs)
	}
	if anomalies == 0 {
		t.Fatal("SI produced no write-skew anomaly across all interleavings")
	}
}

func TestExhaustiveWriteSkewSSI(t *testing.T) {
	// Under Serializable SI every interleaving's committed subset must be
	// serializable, with both detector variants (the paper's §4.7 check).
	for _, det := range []ssidb.Detector{ssidb.DetectorBasic, ssidb.DetectorPrecise} {
		aborts := 0
		Explore(NewDB(det), ssidb.SerializableSI, mustSet(t, "writeskew"), func(o Outcome) {
			for _, err := range o.Errs {
				if err != nil && !ssidb.Retryable(err) {
					t.Fatalf("schedule %v: unexpected error %v", o, err)
				}
				if err != nil {
					aborts++
				}
			}
			if ok, cyc := o.History.Serializable(); !ok {
				t.Fatalf("detector %v schedule %v: non-serializable execution, cycle %v\n%s",
					det, o, cyc, o.History.MVSG())
			}
		})
		if aborts == 0 {
			t.Fatalf("detector %v: no aborts — write skew must be broken somewhere", det)
		}
	}
}

func TestExhaustiveThesisSetSI(t *testing.T) {
	Explore(NewDB(ssidb.DetectorPrecise), ssidb.SnapshotIsolation, mustSet(t, "thesis"), func(o Outcome) {
		for i, err := range o.Errs {
			if err != nil {
				t.Fatalf("schedule %v: SI aborted script %d: %v", o, i, err)
			}
		}
		if ok, cyc := o.History.Serializable(); !ok {
			t.Fatalf("schedule %v: this set should always be serializable; cycle %v", o, cyc)
		}
	})
}

func TestExhaustiveThesisSetSSI(t *testing.T) {
	// Both detectors must keep everything serializable; the precise
	// detector must abort strictly less often than the basic one on this
	// false-positive-only workload (thesis §3.6).
	abortCount := map[ssidb.Detector]int{}
	for _, det := range []ssidb.Detector{ssidb.DetectorBasic, ssidb.DetectorPrecise} {
		Explore(NewDB(det), ssidb.SerializableSI, mustSet(t, "thesis"), func(o Outcome) {
			for _, err := range o.Errs {
				if err != nil {
					if !ssidb.Retryable(err) {
						t.Fatalf("schedule %v: %v", o, err)
					}
					abortCount[det]++
				}
			}
			if ok, cyc := o.History.Serializable(); !ok {
				t.Fatalf("detector %v schedule %v: cycle %v", det, o, cyc)
			}
		})
	}
	if abortCount[ssidb.DetectorPrecise] >= abortCount[ssidb.DetectorBasic] {
		t.Fatalf("precise detector aborted %d, basic %d — precision lost",
			abortCount[ssidb.DetectorPrecise], abortCount[ssidb.DetectorBasic])
	}
}

func TestExhaustiveReadOnlyAnomaly(t *testing.T) {
	if testing.Short() {
		t.Skip("1680 interleavings x 2 isolation levels")
	}
	anomalies := 0
	Explore(NewDB(ssidb.DetectorPrecise), ssidb.SnapshotIsolation, mustSet(t, "readonly"), func(o Outcome) {
		if ok, _ := o.History.Serializable(); !ok {
			anomalies++
		}
	})
	if anomalies == 0 {
		t.Fatal("read-only anomaly never materialised under SI")
	}
	Explore(NewDB(ssidb.DetectorPrecise), ssidb.SerializableSI, mustSet(t, "readonly"), func(o Outcome) {
		if ok, cyc := o.History.Serializable(); !ok {
			t.Fatalf("SSI schedule %v: cycle %v\n%s", o, cyc, o.History.MVSG())
		}
	})
}

func TestExhaustivePhantomSkew(t *testing.T) {
	scripts := mustSet(t, "phantom")
	anomalies := 0
	Explore(NewDB(ssidb.DetectorPrecise), ssidb.SnapshotIsolation, scripts, func(o Outcome) {
		if ok, _ := o.History.Serializable(); !ok {
			anomalies++
		}
	})
	if anomalies == 0 {
		t.Fatal("phantom skew never materialised under SI")
	}
	Explore(NewDB(ssidb.DetectorPrecise), ssidb.SerializableSI, scripts, func(o Outcome) {
		if ok, cyc := o.History.Serializable(); !ok {
			t.Fatalf("SSI schedule %v: cycle %v\n%s", o, cyc, o.History.MVSG())
		}
	})
}

func TestExhaustiveS2PLAlwaysSerializable(t *testing.T) {
	// S2PL blocks, so this also exercises the scheduler's pending/drain
	// machinery. Write skew scripts: S2PL serializes or deadlocks.
	Explore(NewDB(ssidb.DetectorPrecise), ssidb.S2PL, mustSet(t, "writeskew"), func(o Outcome) {
		for _, err := range o.Errs {
			if err != nil && !ssidb.Retryable(err) {
				t.Fatalf("schedule %v: %v", o, err)
			}
		}
		if ok, cyc := o.History.Serializable(); !ok {
			t.Fatalf("S2PL schedule %v: cycle %v", o, cyc)
		}
	})
}

// lockedReadDB is NewDB for TestExhaustiveLockedReadSkew: opts with det and a
// recorder, and the rows a, b, c, d and r committed in ascending order, which
// at four keys a page leaves a and r on different leaves.
func lockedReadDB(opts ssidb.Options, det ssidb.Detector) func() (*ssidb.DB, *sercheck.History) {
	return func() (*ssidb.DB, *sercheck.History) {
		h := sercheck.NewHistory()
		opts.Detector, opts.Recorder = det, h
		db := ssidb.Open(opts)
		if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
			for _, k := range []string{"a", "b", "c", "d", "r"} {
				if err := tx.Put(table, []byte(k), i64(0)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			panic(fmt.Sprintf("interleave: seeding a fresh database: %v", err))
		}
		return db, h
	}
}

// TestExhaustiveLockedReadSkew: a locked read that writes nothing, and an
// Insert refused on a live row, read the row, and only a version the reader
// writes may take that read's place. T reads r — by GetForUpdate, by a Get
// and then a GetForUpdate, or by a Get and then a refused Insert — and writes
// a; W reads a and writes r. No schedule may commit both: at SerializableSI
// under both detectors, at row granularity, and at page granularity with a
// and r on different leaves.
func TestExhaustiveLockedReadSkew(t *testing.T) {
	forUpdate := func(tx *ssidb.Txn) error {
		_, _, err := tx.GetForUpdate(table, []byte("r"))
		return err
	}
	refused := func(tx *ssidb.Txn) error {
		switch err := tx.Insert(table, []byte("r"), i64(1)); {
		case errors.Is(err, ssidb.ErrKeyExists):
			return nil
		case err == nil:
			return errors.New("an Insert of a live row succeeded")
		default:
			return err
		}
	}
	shapes := []struct {
		name  string
		steps []Step
	}{
		{"GetForUpdate", []Step{forUpdate, put("a", 1)}},
		{"Get+GetForUpdate", []Step{get("r"), forUpdate, put("a", 1)}},
		{"Get+refused-Insert", []Step{get("r"), refused, put("a", 1)}},
	}
	w := Script{Name: "W", Steps: []Step{get("a"), put("r", 2)}}
	for _, g := range []struct {
		name string
		opts ssidb.Options
	}{
		{"row", ssidb.Options{}},
		{"page", ssidb.Options{Granularity: ssidb.GranularityPage, PageMaxKeys: 4}},
	} {
		for _, det := range []ssidb.Detector{ssidb.DetectorBasic, ssidb.DetectorPrecise} {
			for _, s := range shapes {
				t.Run(g.name+"/"+DetectorName(det)+"/"+s.name, func(t *testing.T) {
					runs, cycles, first := 0, 0, ""
					scripts := []Script{{Name: "T", Steps: s.steps}, w}
					Explore(lockedReadDB(g.opts, det), ssidb.SerializableSI, scripts, func(o Outcome) {
						runs++
						for i, err := range o.Errs {
							if err != nil && !ssidb.Retryable(err) {
								t.Fatalf("schedule %v: script %s: %v", o, scripts[i].Name, err)
							}
						}
						if ok, cyc := o.History.Serializable(); !ok {
							if cycles++; first == "" {
								first = fmt.Sprintf("schedule %v, cycle %v", o, cyc)
							}
						}
					})
					if cycles > 0 {
						t.Fatalf("%d of %d schedules committed a cycle; the first: %s", cycles, runs, first)
					}
				})
			}
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/census.golden from this run")

// censusRows runs the census the golden file holds: every set of the table
// under both detectors, and under the default once more with the set's
// read-only scripts declared.
func censusRows(t *testing.T, sets []Set) []CensusRow {
	t.Helper()
	var rows []CensusRow
	add := func(set Set, det ssidb.Detector, readOnly ...string) {
		row, err := Census(set, det, readOnly...)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	for _, set := range sets {
		add(set, ssidb.DetectorBasic)
		add(set, ssidb.DetectorPrecise)
		if len(set.ReadOnly) > 0 {
			add(set, ssidb.DetectorPrecise, set.ReadOnly...)
		}
	}
	return rows
}

// TestCensusGolden is the deterministic gate on what the algorithm decides:
// any change to core, lock or the lock targets that moves a count — a
// schedule that starts or stops aborting, a different victim — shows up as a
// diff of testdata/census.golden, to be explained in review and accepted with
// -update. What must hold whatever the counts are is asserted outright.
func TestCensusGolden(t *testing.T) {
	sets := Sets()
	if testing.Short() {
		if *update {
			t.Fatal("-update needs the whole census; drop -short")
		}
		sets = sets[:2] // writeskew, thesis: 280 schedules, invariants only
	}
	rows := censusRows(t, sets)
	for i, r := range rows {
		name := r.Set.Name + "/" + DetectorName(r.Detector)
		if r.NonSerializable != 0 {
			t.Errorf("%s: %d non-serializable executions at SerializableSI", name, r.NonSerializable)
		}
		if len(r.ReadOnly) > 0 {
			// Declaring a reader takes nothing a cycle needs away, so it
			// must not lose a necessary abort the undeclared run made.
			if undeclared := rows[i-1]; r.Necessary != undeclared.Necessary {
				t.Errorf("%s: %d necessary aborts with %v declared read-only, %d without", name, r.Necessary, r.ReadOnly, undeclared.Necessary)
			}
		}
	}
	if testing.Short() {
		return // the table's columns are aligned over all rows: no partial compare
	}
	got := FormatCensus(rows)
	golden := filepath.Join("testdata", "census.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("census moved; explain the difference and rerun with -update. got\n%s\nwant\n%s", got, want)
	}
}
