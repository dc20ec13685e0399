package interleave

import (
	"encoding/binary"
	"fmt"

	"ssi/internal/sercheck"
	"ssi/ssidb"
)

// Set is a named script set: a handful of short transactions whose every
// interleaving is worth executing. The tests, the census and cmd/interleave
// all draw from the one table behind Sets.
type Set struct {
	Name string
	// Doc says what the set is for, in one line.
	Doc string
	// Scripts are shared between callers: use WithReadOnly, never mutate.
	Scripts []Script
	// ReadOnly names the scripts that write nothing. The census adds a row
	// that runs them as declared read-only transactions.
	ReadOnly []string
}

// table is the one table every set works on, and seedKeys the rows it holds
// (value 0) before the scripts start.
const table = "t"

var seedKeys = []string{"a", "chk", "sav", "x", "y", "z"}

func i64(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

func get(key string) Step {
	return func(tx *ssidb.Txn) error {
		_, _, err := tx.Get(table, []byte(key))
		return err
	}
}

func put(key string, v int64) Step {
	return func(tx *ssidb.Txn) error { return tx.Put(table, []byte(key), i64(v)) }
}

func insert(key string) Step {
	return func(tx *ssidb.Txn) error { return tx.Insert(table, []byte(key), i64(1)) }
}

// add is one UPDATE statement: read the row, write it back changed.
func add(key string, delta int64) Step {
	return func(tx *ssidb.Txn) error {
		v, _, err := tx.Get(table, []byte(key))
		if err != nil {
			return err
		}
		return tx.Put(table, []byte(key), i64(int64(binary.BigEndian.Uint64(v))+delta))
	}
}

// sum is one UPDATE statement that reads two other rows: dst = a + b.
func sum(dst, a, b string) Step {
	return func(tx *ssidb.Txn) error {
		var total int64
		for _, key := range []string{a, b} {
			v, _, err := tx.Get(table, []byte(key))
			if err != nil {
				return err
			}
			total += int64(binary.BigEndian.Uint64(v))
		}
		return tx.Put(table, []byte(dst), i64(total))
	}
}

func scanAll(tx *ssidb.Txn) error {
	return tx.Scan(table, []byte("a"), []byte("zz"), func(k, v []byte) bool { return true })
}

var sets = []Set{
	{
		Name: "writeskew",
		Doc:  "the classic two-transaction write skew: both read x and y, one writes x, the other y",
		Scripts: []Script{
			{Name: "T0", Steps: []Step{get("x"), get("y"), put("x", -1)}},
			{Name: "T1", Steps: []Step{get("x"), get("y"), put("y", -1)}},
		},
	},
	{
		Name: "thesis",
		Doc:  "the exact set of thesis §4.7; serializable as T1 < T2 < T3 in every interleaving, so every abort is a false positive",
		Scripts: []Script{
			{Name: "T1", Steps: []Step{get("x")}},
			{Name: "T2", Steps: []Step{get("y"), put("x", 2)}},
			{Name: "T3", Steps: []Step{put("y", 3)}},
		},
		ReadOnly: []string{"T1"},
	},
	{
		Name: "readonly",
		Doc:  "the read-only anomaly (Fekete et al. 2004; thesis Example 3)",
		Scripts: []Script{
			{Name: "pivot", Steps: []Step{get("y"), put("x", 5)}},
			{Name: "out", Steps: []Step{put("y", 10), put("z", 10)}},
			{Name: "in", Steps: []Step{get("x"), get("z")}},
		},
		ReadOnly: []string{"in"},
	},
	{
		Name: "phantom",
		Doc:  "predicate write skew: both scan the table, each inserts a row the other's scan would have seen",
		Scripts: []Script{
			{Name: "T0", Steps: []Step{scanAll, insert("m0")}},
			{Name: "T1", Steps: []Step{scanAll, insert("m1")}},
		},
	},
	{
		Name: "pivot3",
		Doc:  "the read-only anomaly with a Tin that also writes: the cycle closes through a pivot that may already have committed when Tin reads, and the read-only rule cannot help",
		Scripts: []Script{
			{Name: "pivot", Steps: []Step{get("y"), put("x", 5)}},
			{Name: "out", Steps: []Step{put("y", 10)}},
			{Name: "in", Steps: []Step{get("y"), get("x"), put("z", 1)}},
		},
	},
	{
		Name: "smallbank",
		Doc:  "SmallBank's dangerous triangle on one customer: Balance -rw-> WriteCheck -rw-> TransactSaving -wr-> Balance",
		Scripts: []Script{
			{Name: "Bal", Steps: []Step{get("sav"), get("chk")}},
			{Name: "WC", Steps: []Step{get("sav"), get("chk"), put("chk", -11)}},
			{Name: "TS", Steps: []Step{add("sav", 20)}},
		},
		ReadOnly: []string{"Bal"},
	},
	{
		Name: "twoout",
		Doc:  "one pivot with two Touts, A and B, and a reader R of what it writes; serializable as R < P < A, B in every interleaving, so every abort is a false positive, and most come from the pivot's outgoing reference collapsing to a self-reference",
		Scripts: []Script{
			{Name: "P", Steps: []Step{sum("z", "x", "y")}},
			{Name: "R", Steps: []Step{get("z")}},
			{Name: "A", Steps: []Step{put("x", 1)}},
			{Name: "B", Steps: []Step{put("y", 1)}},
		},
		ReadOnly: []string{"R"},
	},
}

// Sets returns the script-set table, in a fixed order.
func Sets() []Set { return sets }

// SetByName looks a set up in the table.
func SetByName(name string) (Set, bool) {
	for _, s := range sets {
		if s.Name == name {
			return s, true
		}
	}
	return Set{}, false
}

// WithReadOnly returns a copy of the set's scripts in which the named ones run
// as declared read-only transactions.
func (s Set) WithReadOnly(names ...string) ([]Script, error) {
	scripts := append([]Script(nil), s.Scripts...)
names:
	for _, name := range names {
		for i := range scripts {
			if scripts[i].Name == name {
				scripts[i].ReadOnly = true
				continue names
			}
		}
		return nil, fmt.Errorf("no script %q in set %q", name, s.Name)
	}
	return scripts, nil
}

// NewDB returns a constructor of fresh databases for Explore and Census: the
// given detector, a history recorder attached, the seed rows committed.
func NewDB(det ssidb.Detector) func() (*ssidb.DB, *sercheck.History) {
	return func() (*ssidb.DB, *sercheck.History) {
		h := sercheck.NewHistory()
		db := ssidb.Open(ssidb.Options{Detector: det, Recorder: h})
		if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
			for _, k := range seedKeys {
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
