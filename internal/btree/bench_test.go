package btree

import (
	"fmt"
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
