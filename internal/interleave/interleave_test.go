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

// TestExhaustiveS2PLAlwaysSerializable: at S2PL every schedule serializes or
// deadlocks, retryably. S2PL blocks, so this also exercises the scheduler's
// pending/drain machinery. The write skew scripts lock rows; the phantom,
// delete skew, own split and past-end scan scripts scan, so their Shared row
// and gap locks — pages, for the past-end scan — are taken round by round
// under the store's latches, and a scan that meets a held lock waits for it
// unlatched and collects again. The locked-read scripts
// (TestExhaustiveLockedReadSkew's GetForUpdate shapes) take one Exclusive
// request for a GetForUpdate, which is also its read lock, at row and at page
// granularity, against a writer of the row.
func TestExhaustiveS2PLAlwaysSerializable(t *testing.T) {
	rowDB := seededDB(ssidb.Options{}, ssidb.DetectorPrecise, "a", "b", "c", "d", "r")
	pageDB := seededDB(ssidb.Options{Granularity: ssidb.GranularityPage, PageMaxKeys: 4}, ssidb.DetectorPrecise, "a", "b", "c", "d", "r")
	for _, set := range []struct {
		name    string
		scripts []Script
		mkDB    func() (*ssidb.DB, *sercheck.History)
	}{
		{"writeskew", mustSet(t, "writeskew"), NewDB(ssidb.DetectorPrecise)},
		{"phantom", mustSet(t, "phantom"), NewDB(ssidb.DetectorPrecise)},
		{"deleteskew", deleteSkew(), NewDB(ssidb.DetectorPrecise)},
		{"ownsplit", ownSplit(), ownSplitDB(ssidb.DetectorPrecise)},
		{"pastendscan/" + pastEndSeeds[0].name, pastEndScan(), pastEndSeeds[0].db(ssidb.DetectorPrecise)},
		{"pastendscan/" + pastEndSeeds[1].name, pastEndScan(), pastEndSeeds[1].db(ssidb.DetectorPrecise)},
		{"lockedread/row/GetForUpdate", lockedRead(getForUpdate("r")), rowDB},
		{"lockedread/row/Get+GetForUpdate", lockedRead(get("r"), getForUpdate("r")), rowDB},
		{"lockedread/page/GetForUpdate", lockedRead(getForUpdate("r")), pageDB},
		{"lockedread/page/Get+GetForUpdate", lockedRead(get("r"), getForUpdate("r")), pageDB},
	} {
		Explore(set.mkDB, ssidb.S2PL, set.scripts, func(o Outcome) {
			for _, err := range o.Errs {
				if err != nil && !ssidb.Retryable(err) {
					t.Fatalf("%s schedule %v: %v", set.name, o, err)
				}
			}
			if ok, cyc := o.History.Serializable(); !ok {
				t.Fatalf("S2PL %s schedule %v: cycle %v", set.name, o, cyc)
			}
		})
	}
}

// getForUpdate is a locked read of key.
func getForUpdate(key string) Step {
	return func(tx *ssidb.Txn) error {
		_, _, err := tx.GetForUpdate(table, []byte(key))
		return err
	}
}

// lockedRead is a locked-read skew (TestExhaustiveLockedReadSkew): T reads r
// by reads and writes a; W reads a and writes r.
func lockedRead(reads ...Step) []Script {
	return []Script{
		{Name: "T", Steps: append(reads, put("a", 1))},
		{Name: "W", Steps: []Step{get("a"), put("r", 2)}},
	}
}

// deleteSkew is the on-call shape over deletes: each script scans the table,
// then deletes a different row it saw.
func deleteSkew() []Script {
	del := func(key string) Step {
		return func(tx *ssidb.Txn) error { return tx.Delete(table, []byte(key)) }
	}
	return []Script{
		{Name: "T0", Steps: []Step{scanAll, del("x")}},
		{Name: "T1", Steps: []Step{scanAll, del("y")}},
	}
}

// TestExhaustiveDeleteSkew runs deleteSkew. Plain SI commits a cycle in some
// schedule; at SerializableSI, under both detectors, none may. A Delete of a
// row the index holds takes no gap lock: the scans' row SIREADs are what the
// deletes' probes must find.
func TestExhaustiveDeleteSkew(t *testing.T) {
	scripts := deleteSkew()
	anomalies := 0
	Explore(NewDB(ssidb.DetectorPrecise), ssidb.SnapshotIsolation, scripts, func(o Outcome) {
		if ok, _ := o.History.Serializable(); !ok {
			anomalies++
		}
	})
	if anomalies == 0 {
		t.Fatal("delete skew never materialised under SI")
	}
	for _, det := range []ssidb.Detector{ssidb.DetectorBasic, ssidb.DetectorPrecise} {
		Explore(NewDB(det), ssidb.SerializableSI, scripts, func(o Outcome) {
			for i, err := range o.Errs {
				if err != nil && !ssidb.Retryable(err) {
					t.Fatalf("detector %v schedule %v: script %s: %v", DetectorName(det), o, scripts[i].Name, err)
				}
			}
			if ok, cyc := o.History.Serializable(); !ok {
				t.Fatalf("detector %v schedule %v: cycle %v\n%s", DetectorName(det), o, cyc, o.History.MVSG())
			}
		})
	}
}

// ownSplit is an insert into the scanner's own scanned gap: T scans [a, m)
// over the rows a and m, inserts c, which splits the gap before m, and scans
// again; U inserts b, into the half split off. T's locks on the gap before m
// must cover both halves, or U's insert is a phantom of T's rescan.
func ownSplit() []Script {
	scan := func(tx *ssidb.Txn) error {
		return tx.Scan(table, []byte("a"), []byte("m"), func(k, v []byte) bool { return true })
	}
	return []Script{
		{Name: "T", Steps: []Step{scan, insert("c"), scan}},
		{Name: "U", Steps: []Step{insert("b")}},
	}
}

// ownSplitDB is the database ownSplit runs on: the rows a and m.
func ownSplitDB(det ssidb.Detector) func() (*ssidb.DB, *sercheck.History) {
	return seededDB(ssidb.Options{}, det, "a", "m")
}

// TestExhaustiveOwnSplit runs ownSplit at SerializableSI under both
// detectors: no schedule may commit a cycle. TestExhaustiveS2PLAlwaysSerializable
// runs it at S2PL.
func TestExhaustiveOwnSplit(t *testing.T) {
	scripts := ownSplit()
	for _, det := range []ssidb.Detector{ssidb.DetectorBasic, ssidb.DetectorPrecise} {
		Explore(ownSplitDB(det), ssidb.SerializableSI, scripts, func(o Outcome) {
			for i, err := range o.Errs {
				if err != nil && !ssidb.Retryable(err) {
					t.Fatalf("detector %v schedule %v: script %s: %v", DetectorName(det), o, scripts[i].Name, err)
				}
			}
			if ok, cyc := o.History.Serializable(); !ok {
				t.Fatalf("detector %v schedule %v: cycle %v\n%s", DetectorName(det), o, cyc, o.History.MVSG())
			}
		})
	}
}

// pastEndScan is a page scan whose range holds no key and has no boundary
// key: T scans [x, zz) and writes a; U reads a and inserts y. Nothing but the
// descent path to x covers the range, so only the first round's lock on that
// path can meet U's insert of y.
func pastEndScan() []Script {
	scan := func(tx *ssidb.Txn) error {
		return tx.Scan(table, []byte("x"), []byte("zz"), func(k, v []byte) bool { return true })
	}
	return []Script{
		{Name: "T", Steps: []Step{scan, put("a", 1)}},
		{Name: "U", Steps: []Step{get("a"), insert("y")}},
	}
}

// pastEndSeeds are the page databases pastEndScan runs on, four keys a page:
// the rows a–h, whose last leaf U's insert splits, and a–g, whose last leaf
// has room for y.
var pastEndSeeds = []pastEndSeed{
	{"a-h", []string{"a", "b", "c", "d", "e", "f", "g", "h"}},
	{"a-g", []string{"a", "b", "c", "d", "e", "f", "g"}},
}

type pastEndSeed struct {
	name string
	keys []string
}

func (s pastEndSeed) db(det ssidb.Detector) func() (*ssidb.DB, *sercheck.History) {
	return seededDB(ssidb.Options{Granularity: ssidb.GranularityPage, PageMaxKeys: 4}, det, s.keys...)
}

// TestExhaustivePastEndScan runs pastEndScan on both seeds: plain SI commits
// a cycle in some schedule; SerializableSI, under both detectors, none.
// TestExhaustiveS2PLAlwaysSerializable runs it at S2PL.
func TestExhaustivePastEndScan(t *testing.T) {
	scripts := pastEndScan()
	for _, seed := range pastEndSeeds {
		t.Run(seed.name, func(t *testing.T) {
			runs, anomalies := 0, 0
			Explore(seed.db(ssidb.DetectorPrecise), ssidb.SnapshotIsolation, scripts, func(o Outcome) {
				runs++
				if ok, _ := o.History.Serializable(); !ok {
					anomalies++
				}
			})
			if anomalies == 0 {
				t.Fatalf("no cycle under SI in %d schedules", runs)
			}
			t.Logf("SI: %d of %d schedules commit a cycle", anomalies, runs)
			for _, det := range []ssidb.Detector{ssidb.DetectorBasic, ssidb.DetectorPrecise} {
				Explore(seed.db(det), ssidb.SerializableSI, scripts, func(o Outcome) {
					for i, err := range o.Errs {
						if err != nil && !ssidb.Retryable(err) {
							t.Fatalf("detector %v schedule %v: script %s: %v", DetectorName(det), o, scripts[i].Name, err)
						}
					}
					if ok, cyc := o.History.Serializable(); !ok {
						t.Fatalf("detector %v schedule %v: cycle %v\n%s", DetectorName(det), o, cyc, o.History.MVSG())
					}
				})
			}
		})
	}
}

// seededDB is NewDB with opts, det and a recorder, and the rows keys
// committed in order: ascending, they fill each leaf of a page database to
// PageMaxKeys.
func seededDB(opts ssidb.Options, det ssidb.Detector, keys ...string) func() (*ssidb.DB, *sercheck.History) {
	return func() (*ssidb.DB, *sercheck.History) {
		h := sercheck.NewHistory()
		opts.Detector, opts.Recorder = det, h
		db := ssidb.Open(opts)
		if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
			for _, k := range keys {
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
// and r on different leaves (the rows a, b, c, d and r, four keys a page).
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
					Explore(seededDB(g.opts, det, "a", "b", "c", "d", "r"), ssidb.SerializableSI, scripts, func(o Outcome) {
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

// TestExhaustivePageSplit: a page write's claim asks the lock table nothing,
// so the writer of a row must hold its leaf across its own splits. With
// PageMaxKeys 4 and the full leaf a–d, W inserts k, which the split at the
// tree's right edge leaves alone on a new page; T reads k and then writes it.
// Plain SI may lose no update, and SerializableSI, under both detectors, may
// commit no cycle: in every schedule T's write waits for W's leaf, moved to
// the new page with k, and then loses to W's commit, or W's write waits for T.
func TestExhaustivePageSplit(t *testing.T) {
	scripts := []Script{
		{Name: "W", Steps: []Step{put("k", 1)}},
		{Name: "T", Steps: []Step{get("k"), put("k", 2)}},
	}
	opts := ssidb.Options{Granularity: ssidb.GranularityPage, PageMaxKeys: 4}
	for _, c := range []struct {
		iso ssidb.Isolation
		det ssidb.Detector
	}{
		{ssidb.SnapshotIsolation, ssidb.DetectorPrecise},
		{ssidb.SerializableSI, ssidb.DetectorBasic},
		{ssidb.SerializableSI, ssidb.DetectorPrecise},
	} {
		t.Run(c.iso.String()+"/"+DetectorName(c.det), func(t *testing.T) {
			Explore(seededDB(opts, c.det, "a", "b", "c", "d"), c.iso, scripts, func(o Outcome) {
				for i, err := range o.Errs {
					if err != nil && !ssidb.Retryable(err) {
						t.Fatalf("schedule %v: script %s: %v", o, scripts[i].Name, err)
					}
				}
				if ok, cyc := o.History.Serializable(); !ok {
					t.Fatalf("schedule %v: cycle %v\n%s", o, cyc, o.History.MVSG())
				}
			})
		})
	}
}

// TestExhaustiveSplitterRead: a page writer's Exclusive grant drops its
// SIREAD on the leaf (§3.7.3), so its write stamp must stand for the read on
// every page the rows it read end up on. With PageMaxKeys 4 and the full leaf
// a, c, e, f, T reads e and inserts b, a split that moves e to a new page; U
// reads b, absent, and writes e. At SerializableSI, under both detectors, no
// schedule may commit a cycle: the split stamps the new page for T, as it
// does the pages it rewrites, so U's write of e there meets T.
func TestExhaustiveSplitterRead(t *testing.T) {
	scripts := []Script{
		{Name: "T", Steps: []Step{get("e"), insert("b")}},
		{Name: "U", Steps: []Step{get("b"), put("e", 2)}},
	}
	opts := ssidb.Options{Granularity: ssidb.GranularityPage, PageMaxKeys: 4}
	for _, det := range []ssidb.Detector{ssidb.DetectorBasic, ssidb.DetectorPrecise} {
		t.Run(DetectorName(det), func(t *testing.T) {
			Explore(seededDB(opts, det, "a", "c", "e", "f"), ssidb.SerializableSI, scripts, func(o Outcome) {
				for i, err := range o.Errs {
					if err != nil && !ssidb.Retryable(err) {
						t.Fatalf("schedule %v: script %s: %v", o, scripts[i].Name, err)
					}
				}
				if ok, cyc := o.History.Serializable(); !ok {
					t.Fatalf("schedule %v: cycle %v\n%s", o, cyc, o.History.MVSG())
				}
			})
		})
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
