//go:build workcount

package lock

import "sync/atomic"

// Work is what the lock manager did since the process started, counted in
// the workcount build only: lock requests (one per Acquire or AcquireInto
// call, one per key of an AcquireSIReadBatchInto), probes of an implicit
// write (one per Probe call), acquisitions of shard and owner mutexes,
// contended or not, and key hashes — one per shardIndex call and one per
// lookup, insert or delete in a shard's table.
type Work struct {
	Acquires   uint64
	Probes     uint64
	ShardLocks uint64
	OwnerLocks uint64
	KeyHashes  uint64
}

var acquires, probes, shardLocks, ownerLocks, keyHashes atomic.Uint64

func noteAcquires(n int) { acquires.Add(uint64(n)) }
func noteProbe()         { probes.Add(1) }
func noteShardLock()     { shardLocks.Add(1) }
func noteOwnerLock()     { ownerLocks.Add(1) }
func noteKeyHash()       { keyHashes.Add(1) }

// ReadWork returns the counters; a caller measures a span of work as the
// difference of two reads.
func ReadWork() Work {
	return Work{
		Acquires:   acquires.Load(),
		Probes:     probes.Load(),
		ShardLocks: shardLocks.Load(),
		OwnerLocks: ownerLocks.Load(),
		KeyHashes:  keyHashes.Load(),
	}
}

// Sub returns the work done between an earlier read u and w.
func (w Work) Sub(u Work) Work {
	return Work{
		Acquires:   w.Acquires - u.Acquires,
		Probes:     w.Probes - u.Probes,
		ShardLocks: w.ShardLocks - u.ShardLocks,
		OwnerLocks: w.OwnerLocks - u.OwnerLocks,
		KeyHashes:  w.KeyHashes - u.KeyHashes,
	}
}
