// Package btree implements a page-structured in-memory B+tree keyed by byte
// strings. It is the ordered index under every table in the engine.
//
// Unlike a generic ordered map, this tree models database *pages*: every node
// has a page number, and callers can ask which leaf page a key lives on and
// which pages an insertion would touch. That is what lets the engine
// reproduce the Berkeley DB prototype of the paper, where locking and
// conflict detection happen at page granularity and a page split conflicts
// with every transaction that read the affected interior pages (the false
// positive source analysed in thesis §6.1.5).
//
// # Layout
//
// A page is one array of {key, value} slots, allocated once at the page
// capacity plus the one slot an insert overflows into before it splits, and
// never regrown or re-sliced: a row costs its slot (over the page's fill) and
// nothing else in this package. The tree is generic in its value type, so a
// slot holds the value itself and not an interface: the engine's slot is a
// key string and a pointer, 24 bytes, and a full leaf of the default 64 keys
// fits a 1 792-byte allocation (an `any` value makes the slot 32 bytes and the
// leaf 2 304). Interior pages use the same array for their separators, beside
// an array of children.
//
// # Keys
//
// The tree owns its keys. A key is copied, into an immutable string, at the
// one moment it enters the tree (the structural insert); the caller's slice is
// never retained, and probes (Get, IterFrom, Successor, ...) compare the
// caller's bytes against the stored strings without converting or allocating.
// Every key the tree hands out — Iter.Key, Successor, the separators inside —
// is that stored string, valid and unchanging for the life of the tree, so
// callers may keep it without copying (the engine names its row and gap locks
// by it, and re-seeks scans from it).
//
// # Splits
//
// A full page splits in the middle, except when the key that overflowed it
// landed at the right edge of the rightmost page of its level: then the split
// point is the insertion point, the old page stays full and only the new key
// moves. That is what Berkeley DB's btree and PostgreSQL's rightmost-page rule
// do for keys appended in order; a middle split there would leave every page
// of an ascending load half empty for good, since nothing is ever inserted
// behind the frontier again. The choice is made from the observed insert
// position alone — there is no fill-factor setting.
//
// The tree is structurally insert-only: deletions in the engine above are
// MVCC tombstones, so nodes never merge. The tree is not safe for concurrent
// use; the MVCC table layer wraps it in a latch.
package btree

import "fmt"

// TreeOf is a B+tree from byte-string keys to values of type V.
type TreeOf[V any] struct {
	maxKeys  int
	root     *node[V]
	nextPage uint32
	size     int
	mods     uint64 // structural-change counter, see Mods

	// OnSplit, if set, is called whenever a page split moves keys from an
	// existing page to a newly allocated one. The engine uses it to inherit
	// page-granularity SIREAD locks onto the new page, so readers of the
	// old page keep their conflict-detection coverage over the moved keys.
	OnSplit func(oldPage, newPage uint32)
}

// Tree is the tree of untyped values, whose slot is 32 bytes rather than 24.
// The engine's tables use TreeOf with their own value type; the repository
// benchmark's btree probe (benchmark/layers.go) uses this one.
type Tree = TreeOf[any]

// slot is one key of a page with, in a leaf, its value.
type slot[V any] struct {
	key string
	val V
}

type node[V any] struct {
	page     uint32
	slots    []slot[V]  // cap maxKeys+1, len ≤ maxKeys between inserts
	children []*node[V] // interior only, len(slots)+1
	next     *node[V]   // leaf sibling chain
}

func (n *node[V]) leaf() bool { return n.children == nil }

// DefaultMaxKeys is the default page capacity (keys per page).
const DefaultMaxKeys = 64

// New returns an empty tree whose pages hold up to maxKeys keys; maxKeys
// values below 2 are raised to 2. Smaller pages mean more pages, each covering
// fewer keys: in the page-granularity engine mode two transactions are then
// less likely to meet on one leaf, and more likely to meet on a split — the
// knob behind the SmallBank contention experiments. A page really does fill to
// maxKeys under an ascending load (see the package comment on splits), so
// "keys per page" there is maxKeys, not half of it.
func New(maxKeys int) *Tree {
	return NewOf[any](maxKeys)
}

// NewOf is New for values of type V. Page numbers start at 1 and name one
// page of this tree.
func NewOf[V any](maxKeys int) *TreeOf[V] {
	if maxKeys < 2 {
		maxKeys = 2
	}
	t := &TreeOf[V]{maxKeys: maxKeys, nextPage: 1}
	t.root = t.newNode(true)
	return t
}

func (t *TreeOf[V]) newNode(leaf bool) *node[V] {
	n := &node[V]{page: t.nextPage, slots: make([]slot[V], 0, t.maxKeys+1)}
	t.nextPage++
	if !leaf {
		n.children = make([]*node[V], 0, t.maxKeys+2)
	}
	return n
}

// Len returns the number of keys stored.
func (t *TreeOf[V]) Len() int { return t.size }

// Mods returns the tree's structural-change counter: it advances on every
// insert (and therefore on every split). An Iter obtained while Mods()
// returned m remains valid — positioned where it was, observing the same key
// sequence — for as long as Mods() still returns m, because nothing else
// mutates node structure. Latch-coupled scans use this to keep iterators
// across latch drops: re-acquire the latch, compare Mods, and re-seek only
// if the tree changed in between.
func (t *TreeOf[V]) Mods() uint64 { return t.mods }

// probe is what a lookup may be keyed by: the caller's bytes, or a key string
// the tree itself handed out. Converting either to a string inside a
// comparison allocates nothing.
type probe interface{ string | []byte }

// search returns the index of the first slot whose key is ≥ key, and whether
// that slot holds key itself.
func search[V any, K probe](slots []slot[V], key K) (int, bool) {
	lo, hi := 0, len(slots)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if slots[mid].key < string(key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(slots) && slots[lo].key == string(key)
}

// childIndex returns the index of the child subtree for key: the number of
// separators ≤ key.
func childIndex[V any, K probe](seps []slot[V], key K) int {
	i, equal := search(seps, key)
	if equal {
		i++
	}
	return i
}

// findLeaf walks from the root to the leaf that contains (or would contain)
// key.
func findLeaf[V any, K probe](t *TreeOf[V], key K) *node[V] {
	n := t.root
	for !n.leaf() {
		n = n.children[childIndex(n.slots, key)]
	}
	return n
}

// Get returns the value stored for key.
func (t *TreeOf[V]) Get(key []byte) (V, bool) {
	_, val, ok := t.Lookup(key)
	return val, ok
}

// Lookup is Get also returning the tree's own copy of key, which the caller
// may keep (see the package comment on keys) where key itself is only
// borrowed.
func (t *TreeOf[V]) Lookup(key []byte) (stored string, val V, ok bool) {
	n := findLeaf(t, key)
	if i, ok := search(n.slots, key); ok {
		return n.slots[i].key, n.slots[i].val, true
	}
	return "", val, false
}

// LeafPage returns the page number of the leaf that holds (or would hold)
// key. Page-granularity locking locks this.
func (t *TreeOf[V]) LeafPage(key []byte) uint32 {
	return findLeaf(t, key).page
}

// PathPages returns the page numbers visited from the root down to the leaf
// for key, root first. Page-granularity reads lock the whole path, as
// Berkeley DB's btree does while descending.
func (t *TreeOf[V]) PathPages(key []byte) []uint32 {
	return t.AppendPathPages(make([]uint32, 0, 4), key)
}

// AppendPathPages is PathPages appending to the caller-supplied buffer.
func (t *TreeOf[V]) AppendPathPages(path []uint32, key []byte) []uint32 {
	for n := t.root; ; n = n.children[childIndex(n.slots, key)] {
		path = append(path, n.page)
		if n.leaf() {
			return path
		}
	}
}

// InsertWillSplit reports whether inserting key now would split its leaf
// page (the key is absent and the leaf is full). The engine uses it to plan
// page locks before mutating.
func (t *TreeOf[V]) InsertWillSplit(key []byte) bool {
	n := findLeaf(t, key)
	if _, ok := search(n.slots, key); ok {
		return false
	}
	return len(n.slots) >= t.maxKeys
}

// GetOrInsert returns the value stored for key; if absent it stores val under
// a copy of key and returns it with loaded=false.
func (t *TreeOf[V]) GetOrInsert(key []byte, val V) (actual V, loaded bool) {
	_, actual, loaded = t.LookupOrInsert(key, val)
	return actual, loaded
}

// LookupOrInsert is GetOrInsert also returning the tree's own copy of key, as
// Lookup does — the copy this call made, if it inserted.
func (t *TreeOf[V]) LookupOrInsert(key []byte, val V) (stored string, actual V, loaded bool) {
	if stored, v, ok := t.Lookup(key); ok {
		return stored, v, true
	}
	return t.insertNew(string(key), val), val, false
}

// LookupOrInsertCopy is LookupOrInsert for a caller that has already copied
// key: copied must equal string(key), and if the call inserts, the tree keeps
// copied as its own key instead of making another copy.
func (t *TreeOf[V]) LookupOrInsertCopy(key []byte, copied string, val V) (stored string, actual V, loaded bool) {
	if stored, v, ok := t.Lookup(key); ok {
		return stored, v, true
	}
	return t.insertNew(copied, val), val, false
}

// insertNew adds key, which is absent and the tree's to keep, and returns it.
func (t *TreeOf[V]) insertNew(key string, val V) string {
	if sep, right := t.insertInto(t.root, key, val, true); right != nil {
		newRoot := t.newNode(false)
		newRoot.slots = append(newRoot.slots, slot[V]{key: sep})
		newRoot.children = append(newRoot.children, t.root, right)
		t.root = newRoot
	}
	t.size++
	t.mods++
	return key
}

// insertInto adds key (which must be absent, and is the tree's to keep) below
// n. edge says that n is the rightmost page of its level. If n had to split,
// it returns the new right sibling and the separator between the two.
func (t *TreeOf[V]) insertInto(n *node[V], key string, val V, edge bool) (sep string, right *node[V]) {
	var at int // where the page gained a slot
	if n.leaf() {
		at, _ = search(n.slots, key)
		n.slots = insertAt(n.slots, at, slot[V]{key: key, val: val})
	} else {
		ci := childIndex(n.slots, key)
		childSep, childRight := t.insertInto(n.children[ci], key, val, edge && ci == len(n.children)-1)
		if childRight == nil {
			return "", nil
		}
		at = ci
		n.slots = insertAt(n.slots, at, slot[V]{key: childSep})
		n.children = insertAt(n.children, at+1, childRight)
	}
	if len(n.slots) <= t.maxKeys {
		return "", nil
	}
	// Overflow. An append at the right edge of the level splits where it
	// landed, so the page left behind stays full: the new key alone moves out
	// of a leaf; out of an interior page, the new separator with its two
	// children, the separator before it moving up. Anything else splits in
	// the middle.
	mid := len(n.slots) / 2
	if last := len(n.slots) - 1; edge && at == last {
		mid = last
		if !n.leaf() {
			mid = last - 1
		}
	}
	return t.split(n, mid)
}

// insertAt inserts v at s[i] within s's capacity: pages are allocated with
// the room their fullest moment needs.
func insertAt[E any](s []E, i int, v E) []E {
	s = s[:len(s)+1]
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// split moves the slots of n from mid on to a new right sibling and returns
// it with the separator the parent files it under: a leaf's separator is a
// second reference to the sibling's first key, an interior page's is slot mid
// itself, which moves up and leaves both halves.
func (t *TreeOf[V]) split(n *node[V], mid int) (sep string, r *node[V]) {
	r = t.newNode(n.leaf())
	sep = n.slots[mid].key
	if n.leaf() {
		r.slots = append(r.slots, n.slots[mid:]...)
		r.next, n.next = n.next, r
	} else {
		r.slots = append(r.slots, n.slots[mid+1:]...)
		r.children = append(r.children, n.children[mid+1:]...)
		clear(n.children[mid+1:])
		n.children = n.children[:mid+1]
	}
	clear(n.slots[mid:]) // the vacated slots must not pin what moved
	n.slots = n.slots[:mid]
	if t.OnSplit != nil {
		t.OnSplit(n.page, r.page)
	}
	return sep, r
}

// Ascend calls fn for each key ≥ from in ascending order until fn returns
// false. The callback also receives the leaf page number, which
// page-granularity scans lock.
func (t *TreeOf[V]) Ascend(from []byte, fn func(key string, val V, page uint32) bool) {
	for it := t.IterFrom(from); it.Valid(); it.Next() {
		if !fn(it.Key(), it.Value(), it.Page()) {
			return
		}
	}
}

// Iter is a forward iterator over the tree's keys in ascending order. It is
// positioned on one key (Valid reports whether one remains) and advanced with
// Next. An Iter is only valid while the tree is structurally unmodified
// (Mods unchanged); a latch-coupled scan that drops the protecting latch must
// either observe an unchanged Mods on re-acquire or discard the iterator and
// re-seek with IterAfter from the last key it consumed. Keys returned by Key
// are the tree's own immutable strings, so the re-seek anchor may be retained
// without copying.
type Iter[V any] struct {
	n *node[V]
	i int
}

// IterFrom returns an iterator positioned at the smallest key ≥ from.
func (t *TreeOf[V]) IterFrom(from []byte) Iter[V] {
	n := findLeaf(t, from)
	i, _ := search(n.slots, from)
	it := Iter[V]{n: n, i: i}
	it.skipExhausted()
	return it
}

// IterAfter returns an iterator positioned at the smallest key strictly
// greater than after — the re-seek primitive for scans resuming past their
// last emitted key (a string the tree handed out) once the tree may have
// changed underneath them. It does not allocate.
func (t *TreeOf[V]) IterAfter(after string) Iter[V] { return iterAfter(t, after) }

func iterAfter[V any, K probe](t *TreeOf[V], after K) Iter[V] {
	n := findLeaf(t, after)
	it := Iter[V]{n: n, i: childIndex(n.slots, after)}
	it.skipExhausted()
	return it
}

// skipExhausted advances past leaves with no remaining keys (the positioned
// leaf when from is past its last key, and empty root leaves).
func (it *Iter[V]) skipExhausted() {
	for it.n != nil && it.i >= len(it.n.slots) {
		it.n = it.n.next
		it.i = 0
	}
}

// Valid reports whether the iterator is positioned on a key.
func (it *Iter[V]) Valid() bool { return it.n != nil }

// Key returns the current key. Only valid when Valid.
func (it *Iter[V]) Key() string { return it.n.slots[it.i].key }

// Value returns the current value. Only valid when Valid.
func (it *Iter[V]) Value() V { return it.n.slots[it.i].val }

// Page returns the page number of the leaf holding the current key.
func (it *Iter[V]) Page() uint32 { return it.n.page }

// Next advances to the next key in order.
func (it *Iter[V]) Next() {
	it.i++
	it.skipExhausted()
}

// Successor returns the smallest key strictly greater than key. Used by the
// next-key gap locking protocol of thesis §3.5: inserts and deletes lock the
// gap before the successor.
func (t *TreeOf[V]) Successor(key []byte) (string, bool) {
	if it := iterAfter(t, key); it.Valid() {
		return it.Key(), true
	}
	return "", false
}

// PageCount returns the number of pages allocated so far (monotonic).
func (t *TreeOf[V]) PageCount() int { return int(t.nextPage - 1) }

// Check validates tree invariants (ordering, separator consistency, balance
// of the leaf chain, and that every page still has the slot array it was
// allocated with, holding no more than a page's worth of keys). It exists for
// tests and returns the first violation.
func (t *TreeOf[V]) Check() error {
	prev, first := "", true
	count := 0
	// lo and hi bound the keys below n; nil means unbounded.
	var walk func(n *node[V], lo, hi *string) error
	walk = func(n *node[V], lo, hi *string) error {
		if len(n.slots) > t.maxKeys || cap(n.slots) != t.maxKeys+1 {
			return fmt.Errorf("btree: page %d holds %d keys in %d slots, want ≤ %d in %d", n.page, len(n.slots), cap(n.slots), t.maxKeys, t.maxKeys+1)
		}
		if n.leaf() {
			for i, s := range n.slots {
				if !first && prev >= s.key {
					return fmt.Errorf("btree: keys out of order at page %d index %d", n.page, i)
				}
				if lo != nil && s.key < *lo {
					return fmt.Errorf("btree: key below separator at page %d", n.page)
				}
				if hi != nil && s.key >= *hi {
					return fmt.Errorf("btree: key above separator at page %d", n.page)
				}
				prev, first = s.key, false
				count++
			}
			return nil
		}
		if len(n.children) != len(n.slots)+1 {
			return fmt.Errorf("btree: interior page %d has %d keys, %d children", n.page, len(n.slots), len(n.children))
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = &n.slots[i-1].key
			}
			if i < len(n.slots) {
				chi = &n.slots[i].key
			}
			if err := walk(c, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, nil, nil); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("btree: size %d but walked %d keys", t.size, count)
	}
	return nil
}
