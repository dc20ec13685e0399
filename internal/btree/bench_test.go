package btree

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%08d", i*2654435761%n))
	}
	return keys
}

func BenchmarkInsert(b *testing.B) {
	keys := benchKeys(b.N)
	tr := New(DefaultMaxKeys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.GetOrInsert(keys[i], i)
	}
}

func BenchmarkGet(b *testing.B) {
	const n = 100000
	keys := benchKeys(n)
	tr := New(DefaultMaxKeys)
	for i, k := range keys {
		tr.GetOrInsert(k, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(keys[i%n])
	}
}

func BenchmarkAscend100(b *testing.B) {
	const n = 100000
	keys := benchKeys(n)
	tr := New(DefaultMaxKeys)
	for i, k := range keys {
		tr.GetOrInsert(k, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		visited := 0
		tr.Ascend(keys[i%n], func(k string, v any, _ uint32) bool {
			visited++
			return visited < 100
		})
	}
}

// BenchmarkLookup probes a tree of 200 000 random 4-byte keys, loaded in
// random order, at random keys it holds: the descent of a point read.
func BenchmarkLookup(b *testing.B) {
	const n = 200_000
	rng := rand.New(rand.NewSource(1))
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = binary.BigEndian.AppendUint32(nil, rng.Uint32())
	}
	tr := New(DefaultMaxKeys)
	for _, k := range keys {
		tr.GetOrInsert(k, nil)
	}
	probes := make([][]byte, 1<<16)
	for i := range probes {
		probes[i] = keys[rng.Intn(n)]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := tr.Lookup(probes[i&(len(probes)-1)]); !ok {
			b.Fatal("a loaded key is missing")
		}
	}
}
