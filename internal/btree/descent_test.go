//go:build workcount

package btree

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// TestDescentWorkBudget counts the stored keys a point lookup reads (keyAt,
// recorded by the workcount build's noteDeref): run it with
//
//	go test -tags workcount -run DescentWorkBudget ./internal/btree
//
// Over distinct 4-byte keys every comparison but the one against the key
// itself is settled by the heads, so a lookup reads only the key it returns —
// the leaf's, and the same pointer wherever it is also a separator. Over keys
// that share their first four bytes every head ties, and a lookup reads at
// most one key per binary-search step of each level, as a page of strings
// would.
func TestDescentWorkBudget(t *testing.T) {
	const n = 200_000
	rng := rand.New(rand.NewSource(1))
	seen := map[uint32]bool{}
	distinct := make([][]byte, 0, n)
	for len(distinct) < n {
		v := rng.Uint32()
		if !seen[v] {
			seen[v] = true
			distinct = append(distinct, binary.BigEndian.AppendUint32(nil, v))
		}
	}
	shared := make([][]byte, n)
	for i := range shared {
		shared[i] = fmt.Appendf(nil, "key-%08d", rng.Intn(1<<30))
	}
	steps := bits.Len(uint(DefaultMaxKeys)) // binary-search steps over a full page
	for _, c := range []struct {
		name     string
		keys     [][]byte
		perLevel int  // the most keys a lookup may read per level
		ownOnly  bool // every key read must be the one returned
	}{
		{"distinct-heads", distinct, 1, true},
		{"shared-heads", shared, steps, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := New(DefaultMaxKeys)
			for _, k := range c.keys {
				tr.GetOrInsert(k, nil)
			}
			levels := 1
			for n := tr.root; !n.leaf(); n = n.children[0] {
				levels++
			}
			const lookups = 10_000
			total, most := 0, 0
			for range lookups {
				k := c.keys[rng.Intn(len(c.keys))]
				leaf := findLeaf(tr, k, head(k))
				i, _ := search(leaf, k, head(k))
				own := leaf.keys[i]
				derefs = derefs[:0]
				if stored, _, ok := tr.Lookup(k); !ok || stored != string(k) {
					t.Fatalf("Lookup(%q) = %q, %v", k, stored, ok)
				}
				for _, d := range derefs {
					if c.ownOnly && d != own {
						t.Fatalf("Lookup(%x) read another key (%d reads)", k, len(derefs))
					}
				}
				total += len(derefs)
				most = max(most, len(derefs))
			}
			t.Logf("%d levels: %.2f key reads per lookup, at most %d", levels, float64(total)/lookups, most)
			// One more read than the search's: the string Lookup returns.
			if budget := levels*c.perLevel + 1; most > budget {
				t.Errorf("a lookup read %d keys, budget %d over %d levels", most, budget, levels)
			}
		})
	}
}

// TestDescentCountWorkBudget: every descent from the root — a lookup, an
// insert, an iterator or successor seek, a page-path walk — counts once, and
// enters one page per level of the tree, the leaf included.
func TestDescentCountWorkBudget(t *testing.T) {
	tr := New(4)
	for i := range 1000 {
		tr.GetOrInsert(binary.BigEndian.AppendUint32(nil, uint32(2*i)), nil)
	}
	levels := uint64(1)
	for n := tr.root; !n.leaf(); n = n.children[0] {
		levels++
	}
	key := func(i int) []byte { return binary.BigEndian.AppendUint32(nil, uint32(i)) }
	for _, c := range []struct {
		name     string
		op       func()
		descents uint64
	}{
		{"Get", func() { tr.Get(key(10)) }, 1},
		{"Lookup", func() { tr.Lookup(key(11)) }, 1},
		{"LookupOrInsert of a present key", func() { tr.LookupOrInsert(key(12), nil) }, 1},
		{"Successor", func() { tr.Successor(key(13)) }, 1},
		{"IterFrom", func() { tr.IterFrom(key(14)) }, 1},
		{"IterAfter", func() { tr.IterAfter(string(key(16))) }, 1},
		{"AppendPathPages", func() { tr.AppendPathPages(nil, key(18), false) }, 1},
		{"AppendPathPages planning an insert", func() { tr.AppendPathPages(nil, key(19), true) }, 1},
	} {
		before := ReadWork()
		c.op()
		if got := ReadWork().Sub(before); got != (Work{Descents: c.descents, Nodes: c.descents * levels}) {
			t.Errorf("%s over %d levels: %+v, want %d descents of %d pages", c.name, levels, got, c.descents, levels)
		}
	}
	// An insert: a lookup that misses, then the insert's own descent, one page
	// a level whatever it splits.
	before := ReadWork()
	tr.LookupOrInsert(key(2001), nil)
	if got := ReadWork().Sub(before); got.Descents != 2 || got.Nodes != 2*levels {
		t.Errorf("LookupOrInsert of an absent key over %d levels: %+v, want 2 descents of %d pages", levels, got, levels)
	}
}
