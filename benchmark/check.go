package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"ssi/internal/sercheck"
	"ssi/internal/workload/smallbank"
	"ssi/ssidb"
)

// checkSerializable replays the workload's generator on a fresh database
// that records its history, and requires the multiversion serialization
// graph of that execution to be acyclic. A failed check counts as one failed
// operation.
func checkSerializable(w *workload, cfg *config, res *result) {
	cw := *w
	if w.checkRows > 0 {
		kv := *w.kv
		kv.Keys = w.checkRows
		cw.kv = &kv
	}
	start := time.Now()
	defer func() { res.Info["check_serializable_s"] = time.Since(start).Seconds() }()
	hist := sercheck.NewHistory()
	in, _, err := setUp(&cw, cfg, hist, w.checkCommits)
	if err != nil {
		res.fail("serializability replay: %v", err)
		return
	}
	if err := in.close(); err != nil {
		res.fail("serializability replay tear-down: %v", err)
	}
	if ok, cycle := hist.Serializable(); !ok {
		res.fail("history of %d committed transactions is not serializable: cycle %v", len(hist.Committed()), cycle)
	}
	res.Info["check_committed_txns"] = float64(len(hist.Committed()))
}

// checkRecovery requires a crash image of the quiesced durable database to
// recover to exactly the live state: every acknowledged commit, nothing
// else. The workers have stopped; a synchronous checkpoint drains any
// checkpoint still in flight, a fixed tail of further commits puts records
// behind it for recovery to replay, and the directory is then copied file by
// file while the database is still open — an un-closed image whose active
// segment ends in its preallocated zeros.
func checkRecovery(in *instance, cfg *config, res *result) {
	start := time.Now()
	defer func() { res.Info["check_recovery_s"] = time.Since(start).Seconds() }()
	im, err := newCrashImage(in, cfg)
	if err != nil {
		res.fail("recovery check: %v", err)
		return
	}
	defer im.close()
	res.Info["recovery_replayed"] = float64(im.replayed)
	if im.replayed == 0 {
		res.fail("recovery check: the crash image replayed no log record")
	}
	for _, table := range []string{smallbank.TableAccount, smallbank.TableSaving, smallbank.TableChecking} {
		live, err := dump(in.db, table)
		if err != nil {
			res.fail("scan live %s: %v", table, err)
			return
		}
		got, err := dump(im.db, table)
		if err != nil {
			res.fail("scan recovered %s: %v", table, err)
			return
		}
		if len(live) != len(got) {
			res.fail("recovered %s has %d rows, live has %d", table, len(got), len(live))
			continue
		}
		for i := range live {
			if !bytes.Equal(live[i].k, got[i].k) || !bytes.Equal(live[i].v, got[i].v) {
				res.fail("recovered %s differs from live at row %d (key %x)", table, i, live[i].k)
				break
			}
		}
	}
}

// crashImage is a recovered copy of a durable instance's directory.
type crashImage struct {
	db       *ssidb.DB
	dir      string
	opened   time.Duration // wall time of OpenDir: checkpoint load + log replay
	replayed uint64        // log records recovery rolled forward
}

func (im *crashImage) close() {
	if im.db != nil {
		im.db.Close()
	}
	os.RemoveAll(im.dir)
}

// newCrashImage quiesces the durable instance as checkRecovery describes,
// copies its directory and opens the copy.
func newCrashImage(in *instance, cfg *config) (*crashImage, error) {
	if err := in.db.Checkpoint(); err != nil {
		return nil, fmt.Errorf("quiescing checkpoint: %w", err)
	}
	for n := 0; n < cfg.sizes.durableTail; n++ {
		if _, err := in.clients[0].exec(in.streams[0].Uint64(), ssidb.SerializableSI, nil); err != nil && !isRollback(err) {
			return nil, fmt.Errorf("tail commit: %w", err)
		}
	}
	dir, err := cfg.tempDir("image-")
	if err != nil {
		return nil, err
	}
	im := &crashImage{dir: dir}
	if err := copyDir(in.dir, dir); err != nil {
		im.close()
		return nil, fmt.Errorf("copy crash image: %w", err)
	}
	start := time.Now()
	if im.db, err = ssidb.OpenDir(dir, durableOptions(nil)); err != nil {
		im.close()
		return nil, fmt.Errorf("open crash image: %w", err)
	}
	im.opened = time.Since(start)
	im.replayed = im.db.StatsSnapshot().RecoveryReplayed
	return im, nil
}

type row struct{ k, v []byte }

func dump(db *ssidb.DB, table string) ([]row, error) {
	var rows []row
	err := db.RunReadOnly(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		rows = rows[:0]
		return tx.Scan(table, nil, nil, func(k, v []byte) bool {
			rows = append(rows, row{append([]byte(nil), k...), append([]byte(nil), v...)})
			return true
		})
	})
	return rows, err
}

func copyDir(from, to string) error {
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(from, e.Name()), filepath.Join(to, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(from, to string) error {
	src, err := os.Open(from)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}
