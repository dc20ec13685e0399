package ssidb_test

import (
	"fmt"
	"testing"

	"ssi/internal/sercheck"
	"ssi/ssidb"
)

// TestRecorderAttributesReads verifies the history recorder wiring: reads
// name the version's creator, scans record their claimed range, commits and
// aborts are attributed.
func TestRecorderAttributesReads(t *testing.T) {
	hist := sercheck.NewHistory()
	db := ssidb.Open(ssidb.Options{Recorder: hist, Detector: ssidb.DetectorPrecise})

	writer := db.Begin(ssidb.SnapshotIsolation)
	if err := writer.Put("t", []byte("x"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}

	reader := db.Begin(ssidb.SerializableSI)
	if _, _, err := reader.Get("t", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}

	aborter := db.Begin(ssidb.SerializableSI)
	aborter.Put("t", []byte("y"), []byte("2"))
	aborter.Abort()

	g := hist.MVSG()
	foundWR := false
	for _, e := range g.Edges {
		if e.Kind == sercheck.WR && e.From == writer.ID() && e.To == reader.ID() {
			foundWR = true
		}
		if e.From == aborter.ID() || e.To == aborter.ID() {
			t.Fatalf("aborted transaction appears in MVSG: %+v", e)
		}
	}
	if !foundWR {
		t.Fatalf("missing wr edge writer->reader:\n%s", g)
	}
	committed := hist.Committed()
	if len(committed) != 2 || committed[0] != writer.ID() || committed[1] != reader.ID() {
		t.Fatalf("Committed() = %v", committed)
	}
}

// TestScanLimitClaimIsMinimal checks that a limited scan's recorded range
// claim stops at the last found key, so the MVSG checker does not invent
// dependencies on keys beyond the stop point.
func TestScanLimitClaimIsMinimal(t *testing.T) {
	hist := sercheck.NewHistory()
	db := ssidb.Open(ssidb.Options{Recorder: hist, Detector: ssidb.DetectorPrecise})
	for i := 0; i < 10; i++ {
		if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
			return tx.Put("t", []byte(fmt.Sprintf("k%02d", i)), []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	scanner := db.Begin(ssidb.SerializableSI)
	if err := scanner.ScanLimit("t", []byte("k00"), nil, 2, func(k, v []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if err := scanner.Commit(); err != nil {
		t.Fatal(err)
	}
	// A later write far beyond the stop point must not create an edge from
	// the scanner.
	if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		return tx.Put("t", []byte("k09"), []byte("w"))
	}); err != nil {
		t.Fatal(err)
	}
	for _, e := range hist.MVSG().Edges {
		if e.From == scanner.ID() && e.Key == "k09" {
			t.Fatalf("spurious edge beyond limited scan's claim: %+v", e)
		}
	}
}

// TestS2PLGetForUpdate covers the locked-read path — one body for every
// level — at both granularities.
func TestS2PLGetForUpdate(t *testing.T) {
	for _, gran := range []ssidb.Granularity{ssidb.GranularityRow, ssidb.GranularityPage} {
		for _, iso := range []ssidb.Isolation{ssidb.SnapshotIsolation, ssidb.S2PL} {
			db := ssidb.Open(ssidb.Options{Granularity: gran})
			if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
				return tx.Put("t", []byte("x"), []byte("1"))
			}); err != nil {
				t.Fatal(err)
			}
			err := db.Run(iso, func(tx *ssidb.Txn) error {
				v, ok, err := tx.GetForUpdate("t", []byte("x"))
				if err != nil || !ok || string(v) != "1" {
					return fmt.Errorf("GetForUpdate = %q %v %v", v, ok, err)
				}
				return tx.Put("t", []byte("x"), []byte("2"))
			})
			if err != nil {
				t.Fatalf("granularity %d, %v: %v", gran, iso, err)
			}
			db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
				v, _, _ := tx.Get("t", []byte("x"))
				if string(v) != "2" {
					t.Fatalf("granularity %d, %v: x = %q", gran, iso, v)
				}
				return nil
			})
		}
	}
}

// TestPageModeScanAndInsertSplit exercises page-granularity scans across
// page splits: a scanner's page SIREAD coverage must follow rows moved by a
// split (lock inheritance), so a post-split writer still conflicts.
func TestPageModeScanAndInsertSplit(t *testing.T) {
	// All keys share one B+tree: page mode's default of a single partition.
	db := ssidb.Open(ssidb.Options{
		Granularity: ssidb.GranularityPage,
		PageMaxKeys: 2,
		Detector:    ssidb.DetectorPrecise,
	})
	// Loaded in descending order, which leaves the leaves with room ([b] and
	// [d f]): an ascending load fills them ([b d] and [f]), every insert
	// below would then split its leaf at once, and the row the scanner writes
	// at the end would sit on a page nobody else wrote.
	for _, k := range []string{"f", "d", "b"} {
		if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
			return tx.Put("t", []byte(k), []byte("1"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	scanner := db.Begin(ssidb.SerializableSI)
	n := 0
	if err := scanner.Scan("t", nil, nil, func(k, v []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("scanned %d", n)
	}
	// A concurrent transaction inserts enough keys to split pages, then a
	// third updates a moved row; the scanner commits last and must abort
	// (it is the pivot of scanner->splitter / updater->scanner... at page
	// granularity the exact edges vary, but the scanner cannot commit after
	// both when its read set changed).
	if err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
		for _, k := range []string{"a", "c", "e", "g"} {
			if err := tx.Insert("t", []byte(k), []byte("2")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
		return tx.Put("t", []byte("f"), []byte("3"))
	})
	if err != nil {
		t.Fatal(err)
	}
	// The scanner now re-reads and commits: either it aborts (conflict
	// detected) or the overall history must still be serializable. Here we
	// just require the engine not to lose the conflict silently when the
	// scanner writes (becoming a pivot).
	werr := scanner.Put("t", []byte("b"), []byte("9"))
	cerr := error(nil)
	if werr == nil {
		cerr = scanner.Commit()
	}
	if werr == nil && cerr == nil {
		t.Fatal("scanner committed despite reading pages rewritten by two later committed transactions")
	}
}
