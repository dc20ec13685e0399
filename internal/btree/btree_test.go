package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"ssi/internal/raceflag"
)

func key(i int) []byte { return []byte(fmt.Sprintf("k%06d", i)) }

// leafPage is the page of the leaf that holds (or would hold) k.
func leafPage[V any](tr *TreeOf[V], k []byte) uint32 { return findLeaf(tr, k, head(k)).page }

func TestEmptyTree(t *testing.T) {
	tr := New(4)
	if tr.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tr.Len())
	}
	if _, ok := tr.Get(key(1)); ok {
		t.Fatal("Get on empty tree returned ok")
	}
	if _, ok := tr.Successor(key(1)); ok {
		t.Fatal("Successor on empty tree returned ok")
	}
	if got := tr.PageCount(); got != 1 {
		t.Fatalf("PageCount = %d, want 1 (the root leaf)", got)
	}
	n := 0
	tr.Ascend(nil, func(string, any, uint32) bool { n++; return true })
	if n != 0 {
		t.Fatalf("Ascend visited %d keys on empty tree", n)
	}
}

func TestInsertGetOrdered(t *testing.T) {
	tr := New(4)
	const n = 500
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		if _, loaded := tr.GetOrInsert(key(i), i); loaded {
			t.Fatalf("key %d reported as existing on first insert", i)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, ok := tr.Get(key(i))
		if !ok || v.(int) != i {
			t.Fatalf("Get(%d) = %v, %v", i, v, ok)
		}
	}
	// GetOrInsert on existing key returns the stored value.
	v, loaded := tr.GetOrInsert(key(7), -1)
	if !loaded || v.(int) != 7 {
		t.Fatalf("GetOrInsert existing = %v, %v", v, loaded)
	}
	if tr.Len() != n {
		t.Fatalf("Len changed on re-insert: %d", tr.Len())
	}
}

func TestAscendRange(t *testing.T) {
	tr := New(3)
	for i := 0; i < 100; i += 2 { // even keys only
		tr.GetOrInsert(key(i), i)
	}
	var got []int
	tr.Ascend(key(10), func(k string, v any, _ uint32) bool {
		if v.(int) >= 30 {
			return false
		}
		got = append(got, v.(int))
		return true
	})
	want := []int{10, 12, 14, 16, 18, 20, 22, 24, 26, 28}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Ascend from a key between stored keys starts at the next stored key.
	var first int
	tr.Ascend(key(11), func(_ string, v any, _ uint32) bool { first = v.(int); return false })
	if first != 12 {
		t.Fatalf("Ascend(11) first = %d, want 12", first)
	}
}

func TestSuccessor(t *testing.T) {
	tr := New(4)
	for i := 0; i < 50; i += 5 {
		tr.GetOrInsert(key(i), i)
	}
	succ, ok := tr.Successor(key(10))
	if !ok || succ != string(key(15)) {
		t.Fatalf("Successor(10) = %q, %v", succ, ok)
	}
	succ, ok = tr.Successor(key(11))
	if !ok || succ != string(key(15)) {
		t.Fatalf("Successor(11) = %q, %v", succ, ok)
	}
	if _, ok := tr.Successor(key(45)); ok {
		t.Fatal("Successor of last key should not exist")
	}
}

func TestLeafPageStableForExistingKeys(t *testing.T) {
	tr := New(4)
	for i := 0; i < 64; i++ {
		tr.GetOrInsert(key(i), i)
	}
	// An existing key's leaf page must match what Ascend reports.
	for i := 0; i < 64; i++ {
		want := leafPage(tr, key(i))
		tr.Ascend(key(i), func(k string, _ any, page uint32) bool {
			if k == string(key(i)) && page != want {
				t.Fatalf("key %d: leaf page %d, Ascend page %d", i, want, page)
			}
			return false
		})
	}
}

func TestPathPagesRootFirst(t *testing.T) {
	tr := New(2)
	for i := 0; i < 40; i++ {
		tr.GetOrInsert(key(i), i)
	}
	path, _ := tr.AppendPathPages([]uint32{7}, key(20), false)
	if path[0] != 7 || len(path) < 3 {
		t.Fatalf("tree of 40 keys with page size 2 should be deep, and the path appended behind 7: %v", path)
	}
	if path[len(path)-1] != leafPage(tr, key(20)) {
		t.Fatalf("path %v does not end at leaf %d", path, leafPage(tr, key(20)))
	}
}

// TestPathPlansSplit: a path walk that plans an insert reports whether the
// insert will split the leaf the path ends at.
func TestPathPlansSplit(t *testing.T) {
	tr := New(4)
	for i := 0; i < 4; i++ {
		tr.GetOrInsert(key(i*10), i)
	}
	split := func(k []byte, insert bool) bool {
		_, split := tr.AppendPathPages(nil, k, insert)
		return split
	}
	if !split(key(5), true) {
		t.Fatal("leaf with 4/4 keys should split on new key")
	}
	if split(key(10), true) {
		t.Fatal("existing key never splits")
	}
	if split(key(5), false) {
		t.Fatal("a path walk that plans no insert reported a split")
	}
	before := tr.PageCount()
	tr.GetOrInsert(key(5), 5)
	if tr.PageCount() <= before {
		t.Fatalf("split did not allocate pages: %d -> %d", before, tr.PageCount())
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAgainstReference drives random key sets through the tree and a
// sorted-slice reference, comparing contents, order and successor queries.
func TestQuickAgainstReference(t *testing.T) {
	f := func(keys [][]byte, order uint8) bool {
		tr := New(int(order%8) + 2)
		ref := map[string]int{}
		for i, k := range keys {
			if len(k) == 0 {
				continue
			}
			if _, exists := ref[string(k)]; !exists {
				ref[string(k)] = i
			}
			tr.GetOrInsert(k, ref[string(k)])
		}
		if tr.Len() != len(ref) {
			return false
		}
		if err := tr.Check(); err != nil {
			return false
		}
		sorted := make([]string, 0, len(ref))
		for k := range ref {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		i := 0
		good := true
		tr.Ascend(nil, func(k string, v any, _ uint32) bool {
			if i >= len(sorted) || k != sorted[i] || v.(int) != ref[sorted[i]] {
				good = false
				return false
			}
			i++
			return true
		})
		return good && i == len(sorted)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeSequentialInsert(t *testing.T) {
	tr := New(DefaultMaxKeys)
	const n = 20000
	for i := 0; i < n; i++ {
		tr.GetOrInsert(key(i), i)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	i := 0
	tr.Ascend(nil, func(k string, v any, _ uint32) bool {
		if v.(int) != i {
			t.Fatalf("position %d holds %v", i, v)
		}
		i++
		return true
	})
	if i != n {
		t.Fatalf("visited %d of %d", i, n)
	}
}

func TestIterFrom(t *testing.T) {
	tr := New(4)
	const n = 200
	for _, i := range rand.New(rand.NewSource(7)).Perm(n) {
		tr.GetOrInsert(key(i), i)
	}
	// Full iteration matches Ascend and is ordered.
	var got []string
	for it := tr.IterFrom(nil); it.Valid(); it.Next() {
		if it.Page() != leafPage(tr, []byte(it.Key())) {
			t.Fatalf("Iter page %d != leaf page %d", it.Page(), leafPage(tr, []byte(it.Key())))
		}
		got = append(got, it.Key())
	}
	if len(got) != n || !sort.StringsAreSorted(got) {
		t.Fatalf("full iteration: %d keys, sorted=%v", len(got), sort.StringsAreSorted(got))
	}
	// Mid-range start: first key ≥ from, both for present and absent from.
	for _, from := range [][]byte{key(50), []byte("k000050x"), key(n - 1), []byte("zzz")} {
		it := tr.IterFrom(from)
		want, ok := tr.Get(from)
		_ = want
		if bytes.Compare(from, key(n-1)) > 0 {
			if it.Valid() {
				t.Fatalf("IterFrom(%q) valid past the end", from)
			}
			continue
		}
		if !it.Valid() {
			t.Fatalf("IterFrom(%q) not valid", from)
		}
		if it.Key() < string(from) {
			t.Fatalf("IterFrom(%q) positioned at smaller key %q", from, it.Key())
		}
		if ok && it.Key() != string(from) {
			t.Fatalf("IterFrom(%q) skipped the present key, at %q", from, it.Key())
		}
	}
	// Empty tree.
	if it := New(4).IterFrom(nil); it.Valid() {
		t.Fatal("iterator on empty tree is valid")
	}
}

func TestIterAfter(t *testing.T) {
	tr := New(4)
	const n = 200
	for _, i := range rand.New(rand.NewSource(11)).Perm(n) {
		tr.GetOrInsert(key(i), i)
	}
	// Strictly-greater positioning, whether the anchor is present or not.
	for _, c := range []struct {
		after []byte
		want  []byte
		ok    bool
	}{
		{nil, key(0), true},
		{key(0), key(1), true},
		{key(57), key(58), true},
		{[]byte("k000057x"), key(58), true}, // absent anchor between keys
		{key(n - 2), key(n - 1), true},
		{key(n - 1), nil, false},
		{[]byte("zzz"), nil, false},
	} {
		it := tr.IterAfter(string(c.after))
		if it.Valid() != c.ok {
			t.Fatalf("IterAfter(%q).Valid() = %v, want %v", c.after, it.Valid(), c.ok)
		}
		if c.ok && it.Key() != string(c.want) {
			t.Fatalf("IterAfter(%q) at %q, want %q", c.after, it.Key(), c.want)
		}
	}
	// Agrees with Successor everywhere (Successor is defined on it).
	for i := 0; i < n; i++ {
		s, ok := tr.Successor(key(i))
		it := tr.IterAfter(string(key(i)))
		if ok != it.Valid() || (ok && s != it.Key()) {
			t.Fatalf("IterAfter/Successor disagree at %d", i)
		}
	}
	if it := New(4).IterAfter(""); it.Valid() {
		t.Fatal("IterAfter on empty tree is valid")
	}
}

// TestModsAndReseek pins the validity contract latch-coupled scans rely on:
// Mods is unchanged ⇒ an outstanding iterator keeps working; Mods changed ⇒
// re-seeking with IterAfter from the last consumed key resumes the correct
// sequence, including any keys inserted ahead of it.
func TestModsAndReseek(t *testing.T) {
	tr := New(3)
	for i := 0; i < 100; i += 2 {
		tr.GetOrInsert(key(i), i)
	}
	m0 := tr.Mods()
	it := tr.IterFrom(nil)
	var got []int
	for j := 0; j < 10; j++ { // consume a prefix
		got = append(got, it.Value().(int))
		it.Next()
	}
	if tr.Mods() != m0 {
		t.Fatal("Mods changed without an insert")
	}
	last := string(key(got[len(got)-1]))
	// Insert behind, at, and ahead of the frontier; Mods must advance.
	tr.GetOrInsert(key(1), 1)
	tr.GetOrInsert(key(21), 21)
	tr.GetOrInsert(key(73), 73)
	if tr.Mods() == m0 {
		t.Fatal("Mods did not advance on insert")
	}
	// Re-seek past the last consumed key and drain.
	for it = tr.IterAfter(last); it.Valid(); it.Next() {
		got = append(got, it.Value().(int))
	}
	want := []int{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 21}
	for i := 22; i < 100; i += 2 {
		want = append(want, i)
		if i == 72 {
			want = append(want, 73)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("resumed iteration saw %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %d, want %d", i, got[i], want[i])
		}
	}
}

// TestSplitPolicy loads trees in ascending, descending and shuffled key order
// and holds the layout to what the package comment promises: a page never
// keeps more than maxKeys keys once an insert has returned (nor regrows its
// slot array — Check), an ascending load leaves its pages full and a shuffled
// one about two thirds full, and OnSplit still reports every key that changes
// page — for a split at the right edge of the tree, the new key and nothing
// else.
func TestSplitPolicy(t *testing.T) {
	const n = 10000
	for _, o := range []struct {
		name    string
		seq     func() []int
		minFill float64
	}{
		{"ascending", func() []int { return ascending(n) }, 0.95},
		{"descending", func() []int { s := ascending(n); slices.Reverse(s); return s }, 0},
		{"shuffled", func() []int { return rand.New(rand.NewSource(3)).Perm(n) }, 0.60},
	} {
		for _, maxKeys := range []int{4, 16, 64} {
			t.Run(fmt.Sprintf("%s/maxKeys=%d", o.name, maxKeys), func(t *testing.T) {
				seq := o.seq()
				tr := New(maxKeys)
				type move struct{ from, to uint32 }
				var moves []move
				tr.OnSplit = func(oldPage, newPage uint32) { moves = append(moves, move{oldPage, newPage}) }
				pageOf := map[string]uint32{} // where OnSplit's reports say each key is
				leaves := func() map[uint32]*node[any] {
					m := map[uint32]*node[any]{}
					for l := findLeaf(tr, "", 0); l != nil; l = l.next {
						m[l.page] = l
					}
					return m
				}
				audit := func() {
					t.Helper()
					if err := tr.Check(); err != nil {
						t.Fatal(err)
					}
					for it := tr.IterFrom(nil); it.Valid(); it.Next() {
						if pageOf[it.Key()] != it.Page() {
							t.Fatalf("key %q is on page %d, OnSplit's reports put it on %d", it.Key(), it.Page(), pageOf[it.Key()])
						}
					}
				}
				for step, i := range seq {
					k := key(i)
					moves = moves[:0]
					before := leafPage(tr, k)
					tr.GetOrInsert(k, i)
					pageOf[string(k)] = before
					if len(moves) > 0 {
						byPage := leaves()
						for _, mv := range moves {
							r := byPage[mv.to]
							if r == nil {
								continue // an interior split: no key changed leaf
							}
							for _, p := range r.keys {
								sk := keyAt(p)
								if pageOf[sk] != mv.from {
									t.Fatalf("split %d→%d moved key %q, last reported on page %d", mv.from, mv.to, sk, pageOf[sk])
								}
								pageOf[sk] = mv.to
							}
							if o.name == "ascending" && (len(r.keys) != 1 || keyAt(r.keys[0]) != string(k)) {
								t.Fatalf("edge split %d→%d moved %d keys, want the new key alone", mv.from, mv.to, len(r.keys))
							}
						}
					}
					// The pages the insert touched are the ones on its key's path.
					for n := tr.root; ; n = n.children[childIndex(n, k, head(k))] {
						if len(n.keys) > maxKeys {
							t.Fatalf("page %d holds %d keys after the insert returned, max %d", n.page, len(n.keys), maxKeys)
						}
						if n.leaf() {
							break
						}
					}
					if step%1000 == 999 {
						audit()
					}
				}
				audit()
				nLeaves := len(leaves())
				fill := float64(n) / float64(nLeaves*maxKeys)
				t.Logf("%d leaves, fill %.3f", nLeaves, fill)
				if fill < o.minFill {
					t.Fatalf("leaf fill %.3f over %d leaves, want ≥ %.2f", fill, nLeaves, o.minFill)
				}
			})
		}
	}
}

func ascending(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// TestProbeDoesNotAllocate: lookups compare the caller's bytes with the stored
// strings in place, whatever the key length.
func TestProbeDoesNotAllocate(t *testing.T) {
	tr := New(8)
	long := bytes.Repeat([]byte("k"), 100)
	for i := 0; i < 100; i++ {
		tr.GetOrInsert(append(long[:len(long):len(long)], key(i)...), i)
	}
	probe := append(long[:len(long):len(long)], key(57)...)
	stored, _, _ := tr.Lookup(probe)
	path := make([]uint32, 0, 8)
	if got := testing.AllocsPerRun(100, func() {
		tr.Get(probe)
		tr.Lookup(probe)
		tr.Successor(probe)
		path, _ = tr.AppendPathPages(path[:0], probe, true)
		it := tr.IterFrom(probe)
		it.Next()
		tr.IterAfter(stored)
	}); got != 0 {
		t.Fatalf("probing allocates %.0f times per round", got)
	}
}

// TestTreeOwnsItsKeys: the caller's slice is copied at the structural insert,
// so reusing it for the next key leaves the stored ones alone.
func TestTreeOwnsItsKeys(t *testing.T) {
	tr := New(4)
	buf := make([]byte, 7)
	for i := 0; i < 100; i++ {
		copy(buf, key(i))
		tr.GetOrInsert(buf, i)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if v, ok := tr.Get(key(i)); !ok || v.(int) != i {
			t.Fatalf("Get(%d) = %v, %v after the insert buffer was reused", i, v, ok)
		}
	}
}

// TestLeafAllocBudget: a leaf of a tree of pointers costs a 256-byte head
// array, two 512-byte pointer arrays (keys and values, each exactly a size
// class and without an allocator header) and its 112-byte node, and nothing
// more per key than the key's stored bytes — its length byte and itself, in
// the tree's arena. An ascending load fills every leaf, so the bytes it
// allocates, less the stored keys, divided by its leaves, are that plus a
// share of the interior pages and of the arena's unused chunk tail. One array
// of {key, value} pairs would be 1 024 bytes with a header, in the 1 152-byte
// class, and fail the budget; the 65-slot array of 24-byte slots a page was
// before read 1 792 bytes. The figure is the least of three loads, since
// another goroutine's allocation can only raise one.
func TestLeafAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const leaves, keyLen = 100, 16
	keys := make([][]byte, leaves*DefaultMaxKeys)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "key-%012d", i)
	}
	val := new(int)
	// TotalAlloc is the whole process's, so an allocation elsewhere in the
	// test binary during a load lands in its figure, and can only add to it:
	// three fresh trees are loaded, and the least figure is judged.
	load := func() float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr := NewOf[*int](DefaultMaxKeys)
		for _, k := range keys {
			tr.GetOrInsert(k, val)
		}
		runtime.ReadMemStats(&after)
		if err := tr.Check(); err != nil {
			t.Fatal(err)
		}
		n := 0
		for l := findLeaf(tr, "", 0); l != nil; l = l.next {
			n++
		}
		if n != leaves {
			t.Fatalf("an ascending load of %d keys filled %d leaves, want %d", len(keys), n, leaves)
		}
		return float64(after.TotalAlloc-before.TotalAlloc-uint64(len(keys)*(1+keyLen))) / leaves
	}
	figures := []float64{load(), load(), load()}
	perLeaf := slices.Min(figures)
	t.Logf("%.0f B per leaf, the least of %.0f", perLeaf, figures)
	const budget = 256 + 2*512 + 112 + 108 // arrays, node, and shares of the interior pages and the arena's slack
	if perLeaf > budget {
		t.Errorf("%.0f B per leaf besides its keys, budget %d", perLeaf, budget)
	}
}

// TestKeyArena: keys of every length the arena stores differently — empty,
// either side of the one- and two-byte length boundaries (127 and 128, 16 383
// and 16 384), either side of the size that gets an allocation of its own, a
// whole chunk and more — come back byte for byte, and an empty tree has
// allocated no chunk.
func TestKeyArena(t *testing.T) {
	tr := New(4)
	if tr.keys.free != nil || tr.KeyBytes() != 0 {
		t.Fatalf("an empty tree holds a chunk of %d bytes, %d stored", cap(tr.keys.free), tr.KeyBytes())
	}
	lengths := []int{0, 1, 5, 127, 128, 300, ownChunk - 2, ownChunk + 1, 16383, maxChunk, 3 * maxChunk}
	want := 0
	for i, n := range lengths {
		k := bytes.Repeat([]byte{byte('a' + i)}, n)
		stored, _, loaded := tr.LookupOrInsert(k, i)
		if loaded || stored != string(k) {
			t.Fatalf("insert of a %d-byte key: loaded %v, stored %d bytes", n, loaded, len(stored))
		}
		want += uvarintLen(n) + n
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if tr.KeyBytes() != want {
		t.Fatalf("KeyBytes = %d, want %d", tr.KeyBytes(), want)
	}
	for i, n := range lengths {
		k := bytes.Repeat([]byte{byte('a' + i)}, n)
		if stored, v, ok := tr.Lookup(k); !ok || v.(int) != i || stored != string(k) {
			t.Fatalf("Lookup of the %d-byte key = %d bytes, %v, %v", n, len(stored), v, ok)
		}
	}
}

// TestHandedOutKeysStayPut keeps every key string the tree hands out and
// checks, after each later insert has split pages and rolled the arena over
// to new chunks, that each still reads as it did.
func TestHandedOutKeysStayPut(t *testing.T) {
	tr := New(4)
	rng := rand.New(rand.NewSource(5))
	type kept struct{ stored, want string }
	var all []kept
	buf := make([]byte, 0, 200)
	for i := 0; i < 20_000; i++ {
		buf = buf[:0]
		for range rng.Intn(40) {
			buf = append(buf, byte(rng.Intn(4)))
		}
		buf = fmt.Appendf(buf, "%d", i) // distinct
		stored, _, _ := tr.LookupOrInsert(buf, i)
		all = append(all, kept{stored, string(buf)})
		if i%2000 == 1999 {
			for _, k := range all {
				if k.stored != k.want {
					t.Fatalf("a key handed out as %q now reads %q", k.want, k.stored)
				}
			}
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	for it := tr.IterFrom(nil); it.Valid(); it.Next() {
		if stored, _, _ := tr.Lookup([]byte(it.Key())); stored != it.Key() {
			t.Fatalf("Lookup(%q) = %q", it.Key(), stored)
		}
	}
}
