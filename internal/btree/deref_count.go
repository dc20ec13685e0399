//go:build workcount

package btree

// derefs records, in the workcount build only, the address of every stored
// key read since it was last emptied. Single-threaded tests only.
var derefs []*byte

func noteDeref(p *byte) { derefs = append(derefs, p) }
