package kvmix

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"ssi/ssidb"
)

// mixRecorder tallies the operation history the DB reports, so the test can
// check what the workload actually issued rather than what it intended.
type mixRecorder struct {
	mu      sync.Mutex
	armed   bool
	reads   int
	writes  int
	commits int
	badKey  string
	badTbl  string
	maxKey  uint32
}

func (r *mixRecorder) arm() {
	r.mu.Lock()
	r.armed = true
	r.mu.Unlock()
}

func (r *mixRecorder) note(table, key string) {
	if table != Table {
		r.badTbl = table
	}
	if len(key) != 4 {
		r.badKey = key
		return
	}
	if k := binary.BigEndian.Uint32([]byte(key)); k > r.maxKey {
		r.maxKey = k
	}
}

func (r *mixRecorder) RecBegin(uint64, string) {}

func (r *mixRecorder) RecRead(_ uint64, table, key string, _, _ uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.armed {
		return
	}
	r.reads++
	r.note(table, key)
}

func (r *mixRecorder) RecWrite(_ uint64, table, key string, _ bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.armed {
		return
	}
	r.writes++
	r.note(table, key)
}

func (r *mixRecorder) RecScan(uint64, string, string, string, uint64) {}

func (r *mixRecorder) RecCommit(uint64, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.armed {
		r.commits++
	}
}

func (r *mixRecorder) RecAbort(uint64) {}

// TestWorkerMixMatchesConfig runs the generator single-threaded with a fixed
// seed — fully deterministic — and checks the recorded history against the
// configured read/write ratio and key range.
func TestWorkerMixMatchesConfig(t *testing.T) {
	rec := &mixRecorder{}
	cfg := Config{Keys: 500, Reads: 3, Writes: 2}
	db := ssidb.Open(ssidb.Options{Recorder: rec})
	if err := Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	if got := db.TableStats(Table).Keys; got != cfg.Keys {
		t.Fatalf("Load created %d keys, want %d", got, cfg.Keys)
	}
	rec.arm() // ignore the load phase's writes

	const txns = 200
	worker := Worker(db, ssidb.SnapshotIsolation, cfg)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < txns; i++ {
		if err := worker(r); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.commits != txns {
		t.Fatalf("commits = %d, want %d", rec.commits, txns)
	}
	if rec.reads != txns*cfg.Reads {
		t.Fatalf("reads = %d, want %d (%d txns × %d reads)", rec.reads, txns*cfg.Reads, txns, cfg.Reads)
	}
	if rec.writes != txns*cfg.Writes {
		t.Fatalf("writes = %d, want %d (%d txns × %d writes)", rec.writes, txns*cfg.Writes, txns, cfg.Writes)
	}
	if rec.badTbl != "" {
		t.Fatalf("operation outside the %s table: %q", Table, rec.badTbl)
	}
	if rec.badKey != "" {
		t.Fatalf("malformed key %q", rec.badKey)
	}
	if rec.maxKey >= uint32(cfg.Keys) {
		t.Fatalf("key %d outside configured range [0, %d)", rec.maxKey, cfg.Keys)
	}
}

// TestConfigNormalized pins the defaulting rules DefaultConfig and Worker
// rely on.
func TestConfigNormalized(t *testing.T) {
	c := Config{Keys: -5, Reads: -1, Writes: -2}.normalized()
	if c.Keys != 10000 || c.Reads != 0 || c.Writes != 0 {
		t.Fatalf("normalized = %+v", c)
	}
	d := DefaultConfig()
	if d.Keys != 10000 || d.Reads != 4 || d.Writes != 2 {
		t.Fatalf("DefaultConfig = %+v", d)
	}
	h := Config{Keys: 100, HotKeys: 500}.normalized()
	if h.HotKeys != 100 || h.HotProb != 0.5 {
		t.Fatalf("hot normalized = %+v", h)
	}
}

// TestHotSetChooser checks the fixed hot-set distribution: with HotProb p
// and a hot set of h keys out of K, the hot keys' expected share of draws is
// p + (1-p)·h/K. Deterministic seed, generous tolerance.
func TestHotSetChooser(t *testing.T) {
	cfg := Config{Keys: 1000, HotKeys: 10, HotProb: 0.6}.normalized()
	choose := cfg.chooser()
	r := rand.New(rand.NewSource(7))
	const draws = 200000
	hot := 0
	for i := 0; i < draws; i++ {
		id := choose(r)
		if id < 0 || id >= cfg.Keys {
			t.Fatalf("key id %d outside [0, %d)", id, cfg.Keys)
		}
		if id < cfg.HotKeys {
			hot++
		}
	}
	want := cfg.HotProb + (1-cfg.HotProb)*float64(cfg.HotKeys)/float64(cfg.Keys)
	got := float64(hot) / draws
	if got < want-0.01 || got > want+0.01 {
		t.Fatalf("hot share = %.3f, want %.3f ± 0.01", got, want)
	}
}
