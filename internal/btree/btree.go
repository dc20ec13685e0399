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
// A page is three parallel arrays — the keys' heads, pointers to the stored
// keys, and in a leaf the values — allocated once at the page capacity and
// never regrown or re-sliced: a row costs its head, its key pointer and its
// value (over the page's fill), its key's bytes, and nothing else in this
// package. The tree is generic in its value type, so a value is stored as
// itself and not as an interface: the engine's entry is 4 + 8 + 8 bytes, and a
// full leaf of the default 64 keys is a 256-byte head array and two 512-byte
// pointer arrays, each exactly a size class (a pointer array of 512 bytes or
// less carries no allocator header; one 1 024-byte array of {key, value}
// pairs would, and round up to 1 152 bytes). A full page splits before an
// insert, never through an overflow entry, so no page needs room for a key it
// cannot keep. Interior pages hold their separators in the same head and key
// arrays, beside an array of children.
//
// A key's head is its first four bytes read big-endian, zero-padded if the
// key is shorter: the heads of a page are in key order (a tie says only that
// two keys share those four bytes). Binary search compares the probe's head
// with the page's heads, which are contiguous integers, and dereferences a
// stored key only on a tie: a lookup whose key differs from its neighbours in
// the first four bytes reads no key but its own.
//
// # Keys
//
// The tree owns its keys. A key is copied at the one moment it enters the
// tree (the structural insert) into the tree's key arena: chunks the tree
// allocates as it fills them (none for an empty tree), 256 bytes at first and
// doubling up to 16 KiB, into which each key is appended as its uvarint
// length and then its bytes; a key too long to share a chunk gets an
// allocation of its own. Nothing is ever removed from the arena — the tree is
// insert-only. The caller's slice is never retained, and probes (Get,
// IterFrom, Successor, ...) compare the caller's bytes against the stored
// keys without converting or allocating. Every key the tree hands out —
// Iter.Key, Successor, Lookup — is a string over the stored bytes, valid and
// unchanging for the life of the tree (no stored byte is written again, and a
// chunk is kept alive by the strings pointing into it), so callers may keep it without
// copying (the engine names its row and gap locks by it, and re-seeks scans
// from it). A separator is the same pointer as the key it was taken from.
//
// # Splits
//
// A full page splits before the insert that would overflow it, at the point a
// page of its keys and the new one would split: in the middle, except when the
// new key lands at the right edge of the rightmost page of its level — then
// the old page stays full and only the new key moves to the new page (out of
// an interior page, the new separator with its two children, the separator
// before it moving up). That is what Berkeley DB's btree and PostgreSQL's
// rightmost-page rule do for keys appended in order; a middle split there
// would leave every page of an ascending load half empty for good, since
// nothing is ever inserted behind the frontier again. The choice is made from
// the observed insert position alone — there is no fill-factor setting.
//
// The tree is structurally insert-only: deletions in the engine above are
// MVCC tombstones, so nodes never merge. The tree is not safe for concurrent
// use; the MVCC table layer wraps it in a latch.
package btree

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// TreeOf is a B+tree from byte-string keys to values of type V.
type TreeOf[V any] struct {
	maxKeys  int
	root     *node[V]
	nextPage uint32
	size     int
	mods     uint64 // structural-change counter, see Mods
	keys     arena

	// OnSplit, if set, is called whenever a page split moves keys from an
	// existing page to a newly allocated one. The engine uses it to inherit
	// page-granularity SIREAD locks onto the new page, so readers of the
	// old page keep their conflict-detection coverage over the moved keys.
	OnSplit func(oldPage, newPage uint32)
}

// Tree is the tree of untyped values, whose value array is 1 024 bytes (and
// an allocator header) rather than 512.
// The engine's tables use TreeOf with their own value type; the repository
// benchmark's btree probe (benchmark/layers.go) uses this one.
type Tree = TreeOf[any]

// A page's keys are three parallel arrays, each of capacity maxKeys: heads,
// keys (each pointing at a stored key's length, see keyAt) and, in a leaf,
// values. Apart, each is exactly a size class at the default capacity; one
// array of {key, value} pairs would be 1 024 bytes and, holding pointers, pay
// the allocator an 8-byte header, which rounds it up to 1 152.
type node[V any] struct {
	page     uint32
	heads    []uint32   // heads[i] is the head of keys[i]
	keys     []*byte    // a leaf's keys, an interior page's separators
	vals     []V        // leaf only: vals[i] is the value of keys[i]
	children []*node[V] // interior only, len(keys)+1, cap maxKeys+1
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
	n := &node[V]{page: t.nextPage, heads: make([]uint32, 0, t.maxKeys), keys: make([]*byte, 0, t.maxKeys)}
	t.nextPage++
	if leaf {
		n.vals = make([]V, 0, t.maxKeys)
	} else {
		n.children = make([]*node[V], 0, t.maxKeys+1)
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

// head returns key's head: its first four bytes, big-endian, zero-padded.
// Heads order as their keys do, except that keys sharing four bytes tie.
func head[K probe](key K) uint32 {
	if len(key) >= 4 {
		return uint32(key[0])<<24 | uint32(key[1])<<16 | uint32(key[2])<<8 | uint32(key[3])
	}
	var h uint32
	for i := range 4 {
		h <<= 8
		if i < len(key) {
			h |= uint32(key[i])
		}
	}
	return h
}

// keyAt returns the key stored at p: its uvarint length, then its bytes.
func keyAt(p *byte) string {
	noteDeref(p)
	n, w := uint64(*p), 1
	for s := 0; n&(0x80<<s) != 0; s += 7 { // a key of 128 bytes or more
		b := *(*byte)(unsafe.Add(unsafe.Pointer(p), w))
		n = n&^(0x80<<s) | uint64(b)<<(s+7)
		w++
	}
	if n == 0 {
		return "" // a pointer past the length could be past the chunk's end
	}
	return unsafe.String((*byte)(unsafe.Add(unsafe.Pointer(p), w)), n)
}

// search returns the index of the first key of n that is ≥ key, h being
// key's head, and whether it is key itself. A stored key is read only when its
// head ties with h.
func search[V any, K probe](n *node[V], key K, h uint32) (int, bool) {
	heads := n.heads
	lo, hi := 0, len(heads)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch hm := heads[mid]; {
		case hm < h:
			lo = mid + 1
		case hm > h:
			hi = mid
		default:
			s := keyAt(n.keys[mid])
			if s == string(key) {
				return mid, true // keys are unique: no earlier one is ≥ key
			}
			if s < string(key) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
	}
	// Key lo (if any) was some step's mid and compared above key: absent.
	return lo, false
}

// childIndex returns the index of the child subtree of interior page n for
// key: the number of separators ≤ key.
func childIndex[V any, K probe](n *node[V], key K, h uint32) int {
	i, equal := search(n, key, h)
	if equal {
		i++
	}
	return i
}

// findLeaf walks from the root to the leaf that contains (or would contain)
// key, whose head is h.
func findLeaf[V any, K probe](t *TreeOf[V], key K, h uint32) *node[V] {
	noteDescent()
	n := t.root
	for noteNode(); !n.leaf(); noteNode() {
		n = n.children[childIndex(n, key, h)]
	}
	return n
}

// Get returns the value stored for key.
func (t *TreeOf[V]) Get(key []byte) (V, bool) {
	h := head(key)
	n := findLeaf(t, key, h)
	if i, ok := search(n, key, h); ok {
		return n.vals[i], true
	}
	var zero V
	return zero, false
}

// Lookup is Get also returning the tree's own copy of key, which the caller
// may keep (see the package comment on keys) where key itself is only
// borrowed.
func (t *TreeOf[V]) Lookup(key []byte) (stored string, val V, ok bool) {
	h := head(key)
	n := findLeaf(t, key, h)
	if i, ok := search(n, key, h); ok {
		return keyAt(n.keys[i]), n.vals[i], true
	}
	return "", val, false
}

// AppendPathPages appends to path the page numbers visited from the root down
// to the leaf for key, root first. Page-granularity operations lock the whole
// path, as Berkeley DB's btree does while descending. If insert is set it also
// reports whether inserting key now would split that leaf — the key is absent
// and the leaf is full — which is what a structural write plans its locks by.
func (t *TreeOf[V]) AppendPathPages(path []uint32, key []byte, insert bool) (_ []uint32, split bool) {
	h := head(key)
	noteDescent()
	for n := t.root; ; n = n.children[childIndex(n, key, h)] {
		noteNode()
		path = append(path, n.page)
		if n.leaf() {
			if insert {
				_, found := search(n, key, h)
				split = !found && len(n.keys) >= t.maxKeys
			}
			return path, split
		}
	}
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
	return keyAt(t.insertNew(key, val)), val, false
}

// Insert stores val under a copy of key, which must be absent — a caller
// whose Lookup just missed, under the same latch hold — and returns the
// tree's copy: LookupOrInsert without its lookup.
func (t *TreeOf[V]) Insert(key []byte, val V) (stored string) {
	return keyAt(t.insertNew(key, val))
}

// insertNew copies key, which is absent, into the arena, files it with val
// and returns the stored copy.
func (t *TreeOf[V]) insertNew(key []byte, val V) *byte {
	p := t.keys.store(key)
	h := head(key)
	noteDescent()
	if sep, sh, right := t.insertInto(t.root, key, h, p, val, true); right != nil {
		r := t.newNode(false)
		r.put(0, sep, sh)
		r.children = append(r.children, t.root, right)
		t.root = r
	}
	t.size++
	t.mods++
	return p
}

// insertInto files val under key (absent, head h, stored at p) below n. edge
// says that n is the rightmost page of its level. If n had to split, it
// returns the new right sibling and the separator between the two, with its
// head.
func (t *TreeOf[V]) insertInto(n *node[V], key []byte, h uint32, p *byte, val V, edge bool) (sep *byte, sepHead uint32, right *node[V]) {
	noteNode()
	if n.leaf() {
		at, _ := search(n, key, h)
		if len(n.keys) < t.maxKeys {
			n.putLeaf(at, p, h, val)
			return nil, 0, nil
		}
		return t.splitLeaf(n, at, p, h, val, edge)
	}
	ci := childIndex(n, key, h)
	sep, sepHead, right = t.insertInto(n.children[ci], key, h, p, val, edge && ci == len(n.children)-1)
	if right == nil {
		return nil, 0, nil
	}
	if len(n.keys) < t.maxKeys {
		n.put(ci, sep, sepHead)
		n.children = insertAt(n.children, ci+1, right)
		return nil, 0, nil
	}
	return t.splitInterior(n, ci, sep, sepHead, right, edge)
}

// splitPoint returns where a full page splits whose keys and the new one,
// inserted at at, would be maxKeys+1: the number the left page keeps, or, of
// an interior page, the index of the separator that moves up. An insert at the
// right edge of its level (edge, and at past the page's last key) leaves the
// old page full; anything else splits in the middle.
func (t *TreeOf[V]) splitPoint(at int, edge, leaf bool) int {
	switch {
	case !edge || at < t.maxKeys:
		return (t.maxKeys + 1) / 2
	case leaf:
		return t.maxKeys
	}
	return t.maxKeys - 1
}

// splitLeaf splits the full leaf n for the key at p (head h, value val) that
// belongs at at, filing it in the half it falls in, and returns the new right
// sibling under its first key, a second reference to the stored key.
func (t *TreeOf[V]) splitLeaf(n *node[V], at int, p *byte, h uint32, val V, edge bool) (*byte, uint32, *node[V]) {
	mid := t.splitPoint(at, edge, true)
	r := t.newNode(true)
	r.next, n.next = n.next, r
	if at < mid {
		n.moveKeys(mid-1, r)
		n.putLeaf(at, p, h, val)
	} else {
		n.moveKeys(mid, r)
		r.putLeaf(at-mid, p, h, val)
	}
	t.splitDone(n, r)
	return r.keys[0], r.heads[0], r
}

// splitInterior splits the full interior page n for the separator sep (head
// sh) that belongs at at, with the new child right after it, and returns the
// new right sibling under the separator that moves up, which leaves both
// halves.
func (t *TreeOf[V]) splitInterior(n *node[V], at int, sep *byte, sh uint32, child *node[V], edge bool) (*byte, uint32, *node[V]) {
	mid := t.splitPoint(at, edge, false)
	r := t.newNode(false)
	up, uh := sep, sh
	switch {
	case at < mid: // separator mid-1 moves up; the new one stays left
		n.moveKeys(mid, r)
		n.moveChildren(mid, r)
		up, uh = n.popKey()
		n.put(at, sep, sh)
		n.children = insertAt(n.children, at+1, child)
	case at == mid: // the new separator itself moves up
		n.moveKeys(mid, r)
		r.children = append(r.children, child)
		n.moveChildren(mid+1, r)
	default: // separator mid moves up; the new one goes right
		n.moveKeys(mid+1, r)
		n.moveChildren(mid+1, r)
		up, uh = n.popKey()
		r.put(at-mid-1, sep, sh)
		r.children = insertAt(r.children, at-mid, child)
	}
	t.splitDone(n, r)
	return up, uh, r
}

// splitDone reports a split of n into n and r to OnSplit.
func (t *TreeOf[V]) splitDone(n, r *node[V]) {
	if t.OnSplit != nil {
		t.OnSplit(n.page, r.page)
	}
}

// put inserts the key at p, whose head is h, at index i of n, which has room.
func (n *node[V]) put(i int, p *byte, h uint32) {
	n.keys = insertAt(n.keys, i, p)
	n.heads = insertAt(n.heads, i, h)
}

// putLeaf is put for a leaf, with the key's value.
func (n *node[V]) putLeaf(i int, p *byte, h uint32, val V) {
	n.put(i, p, h)
	n.vals = insertAt(n.vals, i, val)
}

// moveKeys appends n's keys (and a leaf's values) from i on to r's and cuts n
// to its first i.
func (n *node[V]) moveKeys(i int, r *node[V]) {
	r.heads = append(r.heads, n.heads[i:]...)
	r.keys = append(r.keys, n.keys[i:]...)
	clear(n.keys[i:]) // the vacated entries must not pin what moved
	n.heads, n.keys = n.heads[:i], n.keys[:i]
	if n.leaf() {
		r.vals = append(r.vals, n.vals[i:]...)
		clear(n.vals[i:])
		n.vals = n.vals[:i]
	}
}

// moveChildren is moveKeys for the children of an interior page.
func (n *node[V]) moveChildren(i int, r *node[V]) {
	r.children = append(r.children, n.children[i:]...)
	clear(n.children[i:])
	n.children = n.children[:i]
}

// popKey removes the last separator of interior page n and returns it with
// its head.
func (n *node[V]) popKey() (*byte, uint32) {
	last := len(n.keys) - 1
	p, h := n.keys[last], n.heads[last]
	n.keys[last] = nil
	n.heads, n.keys = n.heads[:last], n.keys[:last]
	return p, h
}

// insertAt inserts v at s[i] within s's capacity: pages are allocated at
// their capacity, and split before they would exceed it.
func insertAt[E any](s []E, i int, v E) []E {
	s = s[:len(s)+1]
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// arena is a tree's key store: see the package comment on keys.
type arena struct {
	free []byte // the unused tail of the newest chunk
	next int    // the size of the next chunk; 0 before the first
	used int    // the bytes stored keys take, lengths included
}

const (
	firstChunk = 256
	maxChunk   = 16 << 10
	// ownChunk is the stored size above which a key gets an allocation of
	// its own rather than the rest of a chunk.
	ownChunk = maxChunk / 16
)

// store copies key into the arena and returns the stored key's address.
func (a *arena) store(key []byte) *byte {
	n := uvarintLen(len(key)) + len(key)
	a.used += n
	var b []byte
	switch {
	case n <= len(a.free):
		b, a.free = a.free[:n:n], a.free[n:]
	case n > ownChunk:
		b = make([]byte, n)
	default:
		size := max(a.next, firstChunk)
		for size < n {
			size *= 2
		}
		a.free, a.next = make([]byte, size), min(2*size, maxChunk)
		b, a.free = a.free[:n:n], a.free[n:]
	}
	copy(b[binary.PutUvarint(b, uint64(len(key))):], key)
	return &b[0]
}

func uvarintLen(n int) int {
	w := 1
	for ; n >= 0x80; n >>= 7 {
		w++
	}
	return w
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
	h := head(from)
	n := findLeaf(t, from, h)
	i, _ := search(n, from, h)
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
	h := head(after)
	n := findLeaf(t, after, h)
	it := Iter[V]{n: n, i: childIndex(n, after, h)}
	it.skipExhausted()
	return it
}

// skipExhausted advances past leaves with no remaining keys (the positioned
// leaf when from is past its last key, and empty root leaves).
func (it *Iter[V]) skipExhausted() {
	for it.n != nil && it.i >= len(it.n.keys) {
		it.n = it.n.next
		it.i = 0
	}
}

// Valid reports whether the iterator is positioned on a key.
func (it *Iter[V]) Valid() bool { return it.n != nil }

// Key returns the current key. Only valid when Valid.
func (it *Iter[V]) Key() string { return keyAt(it.n.keys[it.i]) }

// Value returns the current value. Only valid when Valid.
func (it *Iter[V]) Value() V { return it.n.vals[it.i] }

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

// KeyBytes returns the bytes the tree's keys take in its arena: each key's
// length and its bytes. It grows only when a key enters the tree.
func (t *TreeOf[V]) KeyBytes() int { return t.keys.used }

// PageCount returns the number of pages allocated so far (monotonic).
func (t *TreeOf[V]) PageCount() int { return int(t.nextPage - 1) }

// Check validates tree invariants (ordering, separator consistency, balance
// of the leaf chain, every head matching its key, and that every page still
// has the arrays it was allocated with, holding no more than a page's worth of
// keys). It exists for tests and returns the first violation.
func (t *TreeOf[V]) Check() error {
	prev, first := "", true
	count := 0
	// lo and hi bound the keys below n; nil means unbounded.
	var walk func(n *node[V], lo, hi *string) error
	walk = func(n *node[V], lo, hi *string) error {
		if len(n.keys) > t.maxKeys || cap(n.keys) != t.maxKeys || len(n.heads) != len(n.keys) || cap(n.heads) != t.maxKeys {
			return fmt.Errorf("btree: page %d holds %d keys in %d and %d heads in %d, want ≤ %d in %d", n.page, len(n.keys), cap(n.keys), len(n.heads), cap(n.heads), t.maxKeys, t.maxKeys)
		}
		if n.leaf() && (len(n.vals) != len(n.keys) || cap(n.vals) != t.maxKeys) || !n.leaf() && n.vals != nil {
			return fmt.Errorf("btree: page %d holds %d keys and %d values in %d", n.page, len(n.keys), len(n.vals), cap(n.vals))
		}
		keys := make([]string, len(n.keys))
		for i, p := range n.keys {
			keys[i] = keyAt(p)
			if n.heads[i] != head(keys[i]) {
				return fmt.Errorf("btree: page %d index %d has head %#x for key %q", n.page, i, n.heads[i], keys[i])
			}
		}
		if n.leaf() {
			for i, k := range keys {
				if !first && prev >= k {
					return fmt.Errorf("btree: keys out of order at page %d index %d", n.page, i)
				}
				if lo != nil && k < *lo {
					return fmt.Errorf("btree: key below separator at page %d", n.page)
				}
				if hi != nil && k >= *hi {
					return fmt.Errorf("btree: key above separator at page %d", n.page)
				}
				prev, first = k, false
				count++
			}
			return nil
		}
		if len(n.children) != len(n.keys)+1 || cap(n.children) != t.maxKeys+1 {
			return fmt.Errorf("btree: interior page %d has %d keys, %d children in %d", n.page, len(n.keys), len(n.children), cap(n.children))
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = &keys[i-1]
			}
			if i < len(keys) {
				chi = &keys[i]
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
