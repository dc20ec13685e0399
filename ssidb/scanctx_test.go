package ssidb_test

import (
	"fmt"
	"slices"
	"testing"

	"ssi/internal/workload/smallbank"
	"ssi/programs"
	"ssi/ssidb"
)

var granularities = map[string]ssidb.Granularity{"row": ssidb.GranularityRow, "page": ssidb.GranularityPage}

// scanner is a transaction rows can scan: an engine transaction or a
// program transaction.
type scanner interface {
	Scan(table string, from, to []byte, fn func(key, val []byte) bool) error
}

// rows collects one un-nested scan of [from, to) as "key=value" strings.
func rows(t *testing.T, tx scanner, table string, from, to []byte) []string {
	t.Helper()
	var out []string
	if err := tx.Scan(table, from, to, func(k, v []byte) bool {
		out = append(out, fmt.Sprintf("%s=%s", k, v))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestNestedScansMatchFlatScans is the re-entrancy half of the recycled scan
// context's contract: a callback that scans (the same table, another table,
// with and without a limit) and reads on its own transaction gets a context
// of its own, so neither the outer scan nor the nested ones lose or repeat a
// row. Table "b" is wider than one lock-coupled round, so the nested scans
// also cross the per-round flush.
func TestNestedScansMatchFlatScans(t *testing.T) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }
	for name, gran := range granularities {
		for _, iso := range []ssidb.Isolation{ssidb.SnapshotIsolation, ssidb.SerializableSI, ssidb.S2PL} {
			t.Run(fmt.Sprintf("%s/%v", name, iso), func(t *testing.T) {
				db := ssidb.Open(ssidb.Options{Granularity: gran, PageMaxKeys: 8, TableShards: 4, Detector: ssidb.DetectorPrecise})
				if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
					for i := 0; i < 300; i++ {
						if i < 24 {
							if err := tx.Put("a", key(i), []byte(fmt.Sprintf("a%d", i))); err != nil {
								return err
							}
						}
						if err := tx.Put("b", key(i), []byte(fmt.Sprintf("b%d", i))); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}

				if err := db.Run(iso, func(tx *ssidb.Txn) error {
					wantA := rows(t, tx, "a", nil, nil)
					wantB := rows(t, tx, "b", nil, nil)
					wantMid := rows(t, tx, "b", key(100), key(140))
					if len(wantA) != 24 || len(wantB) != 300 || len(wantMid) != 40 {
						t.Fatalf("flat scans saw %d, %d and %d rows", len(wantA), len(wantB), len(wantMid))
					}
					var gotA []string
					err := tx.Scan("a", nil, nil, func(k, v []byte) bool {
						gotA = append(gotA, fmt.Sprintf("%s=%s", k, v))
						if got := rows(t, tx, "b", nil, nil); !slices.Equal(got, wantB) {
							t.Errorf("at %s: nested scan of b saw %d rows, want %d", k, len(got), len(wantB))
						}
						if got := rows(t, tx, "a", nil, nil); !slices.Equal(got, wantA) {
							t.Errorf("at %s: nested scan of a = %v, want %v", k, got, wantA)
						}
						var first []string
						if err := tx.ScanLimit("b", key(100), key(140), 3, func(k2, v2 []byte) bool {
							// Two levels down.
							if got := rows(t, tx, "b", key(100), key(140)); !slices.Equal(got, wantMid) {
								t.Errorf("at %s/%s: doubly nested scan = %v, want %v", k, k2, got, wantMid)
							}
							first = append(first, fmt.Sprintf("%s=%s", k2, v2))
							return true
						}); err != nil {
							t.Error(err)
						}
						if !slices.Equal(first, wantMid[:3]) {
							t.Errorf("at %s: nested ScanLimit = %v, want %v", k, first, wantMid[:3])
						}
						if got, ok, err := tx.Get("a", k); err != nil || !ok || string(got) != string(v) {
							t.Errorf("at %s: nested Get = %q, %v, %v; the scan showed %q", k, got, ok, err, v)
						}
						return true
					})
					if !slices.Equal(gotA, wantA) {
						t.Errorf("outer scan = %v, want %v", gotA, wantA)
					}
					return err
				}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestNestedScanInPromotedProgram covers the scan variant that writes: a
// program scan of a promoted table identity-writes every row it showed,
// after the loop, from copies taken during it — with nested scans and
// (identity-writing) reads of the same transaction in between.
func TestNestedScanInPromotedProgram(t *testing.T) {
	for name, gran := range granularities {
		t.Run(name, func(t *testing.T) {
			db := ssidb.Open(ssidb.Options{Granularity: gran, PageMaxKeys: 8, Detector: ssidb.DetectorPrecise})
			sbLoad(t, db, smallbank.Config{Accounts: 20, InitialBalance: 100})
			pdb := programs.New(db)
			rep, err := smallbank.Register(pdb, true)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(rep.Promoted["Bal"], smallbank.TableChecking) {
				t.Fatalf("Bal does not promote %s: %v", smallbank.TableChecking, rep.Promoted)
			}
			var want []string
			if err := pdb.RunProgram("Bal", func(tx *programs.Txn) error {
				want = rows(t, tx, smallbank.TableChecking, nil, nil)
				wantSaving := rows(t, tx, smallbank.TableSaving, nil, nil)
				if len(want) != 20 || len(wantSaving) != 20 {
					t.Fatalf("flat scans saw %d and %d rows", len(want), len(wantSaving))
				}
				var got []string
				err := tx.Scan(smallbank.TableChecking, nil, nil, func(k, v []byte) bool {
					got = append(got, fmt.Sprintf("%s=%s", k, v))
					if s := rows(t, tx, smallbank.TableSaving, nil, nil); !slices.Equal(s, wantSaving) {
						t.Errorf("at %x: nested scan of saving = %v, want %v", k, s, wantSaving)
					}
					if c := rows(t, tx, smallbank.TableChecking, nil, nil); !slices.Equal(c, want) {
						t.Errorf("at %x: nested scan of checking = %v, want %v", k, c, want)
					}
					if val, ok, err := tx.Get(smallbank.TableChecking, k); err != nil || !ok || string(val) != string(v) {
						t.Errorf("at %x: nested Get = %x, %v, %v; the scan showed %x", k, val, ok, err, v)
					}
					return true
				})
				if !slices.Equal(got, want) {
					t.Errorf("outer scan = %v, want %v", got, want)
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}
			// The identity writes committed, and wrote what was read.
			if err := pdb.Adhoc().Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
				if got := rows(t, tx, smallbank.TableChecking, nil, nil); !slices.Equal(got, want) {
					t.Errorf("after the program: %v, want %v", got, want)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
