// Package btree implements a page-structured in-memory B+tree keyed by byte
// slices. It is the ordered index under every table in the engine.
//
// Unlike a generic ordered map, this tree models database *pages*: every node
// has a page number, and callers can ask which leaf page a key lives on and
// which pages an insertion would touch. That is what lets the engine
// reproduce the Berkeley DB prototype of the paper, where locking and
// conflict detection happen at page granularity and a page split conflicts
// with every transaction that read the affected interior pages (the false
// positive source analysed in thesis §6.1.5).
//
// The tree is structurally insert-only: deletions in the engine above are
// MVCC tombstones, so nodes never merge. The tree is not safe for concurrent
// use; the MVCC table layer wraps it in a latch.
package btree

import (
	"bytes"
	"fmt"
)

// Tree is a B+tree from byte-slice keys to arbitrary values.
type Tree struct {
	maxKeys   int
	root      *node
	nextPage  uint32
	pageBase  uint32
	pageLimit uint32 // exclusive upper bound on page numbers; 0 = none
	size      int
	mods      uint64 // structural-change counter, see Mods

	// OnSplit, if set, is called whenever a page split moves keys from an
	// existing page to a newly allocated one. The engine uses it to inherit
	// page-granularity SIREAD locks onto the new page, so readers of the
	// old page keep their conflict-detection coverage over the moved keys.
	OnSplit func(oldPage, newPage uint32)
}

type node struct {
	page     uint32
	keys     [][]byte
	vals     []any   // leaf only, parallel to keys
	children []*node // interior only, len(keys)+1
	next     *node   // leaf sibling chain
}

func (n *node) leaf() bool { return n.children == nil }

// DefaultMaxKeys is the default page capacity (keys per page).
const DefaultMaxKeys = 64

// New returns an empty tree whose pages hold up to maxKeys keys; maxKeys
// values below 2 are raised to 2. Smaller pages mean more pages and, in the
// page-granularity engine mode, coarser conflict probability per page —
// the knob behind the SmallBank contention experiments.
func New(maxKeys int) *Tree {
	return NewWithPageBase(maxKeys, 0, 0)
}

// NewWithPageBase is New with page numbers allocated starting at pageBase+1
// and bounded by pageLimit (exclusive; 0 means unbounded). A partitioned
// table gives each partition's tree a disjoint page-number range, so
// page-granularity lock keys and write stamps never collide across
// partitions while staying meaningful within one; the limit turns an
// exhausted range into a crash instead of silently bleeding page numbers
// into the next partition's range.
func NewWithPageBase(maxKeys int, pageBase, pageLimit uint32) *Tree {
	if maxKeys < 2 {
		maxKeys = 2
	}
	t := &Tree{maxKeys: maxKeys, pageBase: pageBase, pageLimit: pageLimit, nextPage: pageBase + 1}
	t.root = t.newNode(true)
	return t
}

func (t *Tree) newNode(leaf bool) *node {
	if t.pageLimit != 0 && t.nextPage >= t.pageLimit {
		panic(fmt.Sprintf("btree: page range [%d, %d) exhausted", t.pageBase+1, t.pageLimit))
	}
	n := &node{page: t.nextPage}
	t.nextPage++
	if !leaf {
		n.children = make([]*node, 0, t.maxKeys+2)
	}
	return n
}

// Len returns the number of keys stored.
func (t *Tree) Len() int { return t.size }

// Mods returns the tree's structural-change counter: it advances on every
// insert (and therefore on every split). An Iter obtained while Mods()
// returned m remains valid — positioned where it was, observing the same key
// sequence — for as long as Mods() still returns m, because nothing else
// mutates node structure. Latch-coupled scans use this to keep iterators
// across latch drops: re-acquire the latch, compare Mods, and re-seek only
// if the tree changed in between.
func (t *Tree) Mods() uint64 { return t.mods }

// findLeaf walks from the root to the leaf that contains (or would contain)
// key, optionally appending the visited pages to path.
func (t *Tree) findLeaf(key []byte, path *[]uint32) *node {
	n := t.root
	for {
		if path != nil {
			*path = append(*path, n.page)
		}
		if n.leaf() {
			return n
		}
		n = n.children[childIndex(n.keys, key)]
	}
}

// childIndex returns the index of the child subtree for key: the first i
// with key < keys[i], else len(keys).
func childIndex(keys [][]byte, key []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(key, keys[mid]) < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// keyIndex returns the position of key in a leaf's key list and whether it
// is present.
func keyIndex(keys [][]byte, key []byte) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(key, keys[mid]) {
		case 0:
			return mid, true
		case -1:
			hi = mid
		default:
			lo = mid + 1
		}
	}
	return lo, false
}

// Get returns the value stored for key.
func (t *Tree) Get(key []byte) (any, bool) {
	n := t.findLeaf(key, nil)
	if i, ok := keyIndex(n.keys, key); ok {
		return n.vals[i], true
	}
	return nil, false
}

// LeafPage returns the page number of the leaf that holds (or would hold)
// key. Page-granularity locking locks this.
func (t *Tree) LeafPage(key []byte) uint32 {
	return t.findLeaf(key, nil).page
}

// PathPages returns the page numbers visited from the root down to the leaf
// for key, root first. Page-granularity reads lock the whole path, as
// Berkeley DB's btree does while descending.
func (t *Tree) PathPages(key []byte) []uint32 {
	return t.AppendPathPages(make([]uint32, 0, 4), key)
}

// AppendPathPages is PathPages appending to the caller-supplied buffer.
func (t *Tree) AppendPathPages(path []uint32, key []byte) []uint32 {
	t.findLeaf(key, &path)
	return path
}

// InsertWillSplit reports whether inserting key now would split its leaf
// page (the key is absent and the leaf is full). The engine uses it to plan
// page locks before mutating.
func (t *Tree) InsertWillSplit(key []byte) bool {
	n := t.findLeaf(key, nil)
	if _, ok := keyIndex(n.keys, key); ok {
		return false
	}
	return len(n.keys) >= t.maxKeys
}

// GetOrInsert returns the value stored for key; if absent it stores val and
// returns it with loaded=false.
func (t *Tree) GetOrInsert(key []byte, val any) (actual any, loaded bool) {
	leaf := t.findLeaf(key, nil)
	if i, ok := keyIndex(leaf.keys, key); ok {
		return leaf.vals[i], true
	}
	t.insert(key, val)
	return val, false
}

// insert adds a new key (must be absent) and splits as needed.
func (t *Tree) insert(key []byte, val any) {
	split, sepKey, right := t.insertInto(t.root, key, val)
	if split {
		newRoot := t.newNode(false)
		newRoot.keys = append(newRoot.keys, sepKey)
		newRoot.children = append(newRoot.children, t.root, right)
		t.root = newRoot
	}
	t.size++
	t.mods++
}

func (t *Tree) insertInto(n *node, key []byte, val any) (split bool, sepKey []byte, right *node) {
	if n.leaf() {
		i, _ := keyIndex(n.keys, key)
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.vals = append(n.vals, nil)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = val
		if len(n.keys) <= t.maxKeys {
			return false, nil, nil
		}
		return t.splitLeaf(n)
	}
	ci := childIndex(n.keys, key)
	childSplit, childSep, childRight := t.insertInto(n.children[ci], key, val)
	if !childSplit {
		return false, nil, nil
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = childSep
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = childRight
	if len(n.keys) <= t.maxKeys {
		return false, nil, nil
	}
	return t.splitInterior(n)
}

func (t *Tree) splitLeaf(n *node) (bool, []byte, *node) {
	mid := len(n.keys) / 2
	r := t.newNode(true)
	r.keys = append(r.keys, n.keys[mid:]...)
	r.vals = append(r.vals, n.vals[mid:]...)
	n.keys = n.keys[:mid:mid]
	n.vals = n.vals[:mid:mid]
	r.next = n.next
	n.next = r
	if t.OnSplit != nil {
		t.OnSplit(n.page, r.page)
	}
	return true, r.keys[0], r
}

func (t *Tree) splitInterior(n *node) (bool, []byte, *node) {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	r := t.newNode(false)
	r.keys = append(r.keys, n.keys[mid+1:]...)
	r.children = append(r.children, n.children[mid+1:]...)
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	if t.OnSplit != nil {
		t.OnSplit(n.page, r.page)
	}
	return true, sep, r
}

// Ascend calls fn for each key ≥ from in ascending order until fn returns
// false. The callback also receives the leaf page number, which
// page-granularity scans lock.
func (t *Tree) Ascend(from []byte, fn func(key []byte, val any, page uint32) bool) {
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
// re-seek with IterAfter from the last key it consumed. Key slices returned
// by Key stay valid across modifications — key bytes are never rewritten —
// so the re-seek anchor may be retained without copying.
type Iter struct {
	n *node
	i int
}

// IterFrom returns an iterator positioned at the smallest key ≥ from.
func (t *Tree) IterFrom(from []byte) Iter {
	n := t.findLeaf(from, nil)
	i, _ := keyIndex(n.keys, from)
	it := Iter{n: n, i: i}
	it.skipExhausted()
	return it
}

// IterAfter returns an iterator positioned at the smallest key strictly
// greater than after — the re-seek primitive for scans resuming past their
// last emitted key once the tree may have changed underneath them. It does
// not allocate.
func (t *Tree) IterAfter(after []byte) Iter {
	n := t.findLeaf(after, nil)
	i, ok := keyIndex(n.keys, after)
	if ok {
		i++
	}
	it := Iter{n: n, i: i}
	it.skipExhausted()
	return it
}

// skipExhausted advances past leaves with no remaining keys (the positioned
// leaf when from is past its last key, and empty root leaves).
func (it *Iter) skipExhausted() {
	for it.n != nil && it.i >= len(it.n.keys) {
		it.n = it.n.next
		it.i = 0
	}
}

// Valid reports whether the iterator is positioned on a key.
func (it *Iter) Valid() bool { return it.n != nil }

// Key returns the current key. Only valid when Valid.
func (it *Iter) Key() []byte { return it.n.keys[it.i] }

// Value returns the current value. Only valid when Valid.
func (it *Iter) Value() any { return it.n.vals[it.i] }

// Page returns the page number of the leaf holding the current key.
func (it *Iter) Page() uint32 { return it.n.page }

// Next advances to the next key in order.
func (it *Iter) Next() {
	it.i++
	it.skipExhausted()
}

// Successor returns the smallest key strictly greater than key. Used by the
// next-key gap locking protocol of thesis §3.5: inserts and deletes lock the
// gap before the successor.
func (t *Tree) Successor(key []byte) ([]byte, bool) {
	if it := t.IterAfter(key); it.Valid() {
		return it.Key(), true
	}
	return nil, false
}

// PageCount returns the number of pages allocated so far (monotonic).
func (t *Tree) PageCount() int { return int(t.nextPage - 1 - t.pageBase) }

// Check validates tree invariants (ordering, separator consistency, balance
// of the leaf chain). It exists for tests and returns the first violation.
func (t *Tree) Check() error {
	var prev []byte
	count := 0
	var walk func(n *node, lo, hi []byte) error
	walk = func(n *node, lo, hi []byte) error {
		if n.leaf() {
			for i, k := range n.keys {
				if prev != nil && bytes.Compare(prev, k) >= 0 {
					return fmt.Errorf("btree: keys out of order at page %d index %d", n.page, i)
				}
				if lo != nil && bytes.Compare(k, lo) < 0 {
					return fmt.Errorf("btree: key below separator at page %d", n.page)
				}
				if hi != nil && bytes.Compare(k, hi) >= 0 {
					return fmt.Errorf("btree: key above separator at page %d", n.page)
				}
				prev = k
				count++
			}
			return nil
		}
		if len(n.children) != len(n.keys)+1 {
			return fmt.Errorf("btree: interior page %d has %d keys, %d children", n.page, len(n.keys), len(n.children))
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = n.keys[i]
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
