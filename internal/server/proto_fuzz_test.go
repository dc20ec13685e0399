package server

import (
	"bytes"
	"testing"

	"ssi/ssidb"
)

// FuzzReadFrame feeds arbitrary byte streams to the frame reader: it must
// never panic, never hand back a payload above MaxFrame, and classify
// oversized length prefixes as protocol errors rather than allocating.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})                      // empty frame
	f.Add([]byte{1, 0, 0, 0, MsgPing})             // valid ping
	f.Add([]byte{5, 0, 0, 0, 1, 2})                // truncated payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}) // oversized length
	f.Add([]byte{0, 0, 16, 0, 1})                  // length just above MaxFrame
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readFrame(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		if len(payload) > MaxFrame {
			t.Fatalf("frame of %d bytes exceeds MaxFrame", len(payload))
		}
	})
}

// FuzzHandle runs arbitrary request payloads through the full session
// dispatch against a live engine. Whatever the bytes, the session must not
// panic, must produce a parseable response frame, and must leave no
// admission slot or transaction pinned once its teardown runs.
func FuzzHandle(f *testing.F) {
	// Seed with one well-formed instance of every message type, plus
	// truncations and garbage around each decode branch.
	var txn []byte
	txn = append(txn, MsgTxn)
	txn = appendU32(txn, 1)
	txn = append(txn, byte(ssidb.SerializableSI), 0)
	txn = appendU16(txn, 2)
	txn = appendOp(txn, Op{Type: OpPut, Table: "t", Key: []byte("k"), Val: []byte("v")})
	txn = appendOp(txn, Op{Type: OpGet, Table: "t", Key: []byte("k")})
	f.Add(txn)

	var begin []byte
	begin = append(begin, MsgBegin)
	begin = appendU32(begin, 2)
	begin = append(begin, byte(ssidb.SnapshotIsolation), byte(FlagReadOnly))
	f.Add(begin)

	var opMsg []byte
	opMsg = append(opMsg, MsgOp)
	opMsg = appendU32(opMsg, 3)
	opMsg = appendU64(opMsg, 1)
	opMsg = appendOp(opMsg, Op{Type: OpScan, Table: "t"})
	f.Add(opMsg)

	f.Add([]byte{MsgPing, 0, 0, 0, 0})
	f.Add([]byte{MsgStats, 1, 0, 0, 0})
	f.Add([]byte{MsgCommit, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{MsgAbort, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Add([]byte{MsgTxn})
	f.Add([]byte{MsgTxn, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{99, 0, 0, 0, 0, 1, 2, 3})
	f.Add(txn[:len(txn)-3]) // truncated mid-op

	// Two tables in one batch, so the session's table-name cache is replaced
	// and reused under the fuzzer.
	var twoTables []byte
	twoTables = append(twoTables, MsgTxn)
	twoTables = appendU32(twoTables, 4)
	twoTables = append(twoTables, byte(ssidb.SerializableSI), 0)
	twoTables = appendU16(twoTables, 3)
	twoTables = appendOp(twoTables, Op{Type: OpPut, Table: "a", Key: []byte("k"), Val: []byte("v")})
	twoTables = appendOp(twoTables, Op{Type: OpGet, Table: "b", Key: []byte("k")})
	twoTables = appendOp(twoTables, Op{Type: OpAdd, Table: "a", Key: []byte("n"), Delta: 1})
	f.Add(twoTables)

	srv := &Server{
		cfg:      Config{}.withDefaults(),
		db:       ssidb.Open(ssidb.Options{}),
		adm:      newAdmission(0, 0, 0),
		sessions: make(map[*session]struct{}),
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		s := &session{srv: srv, txns: make(map[uint64]*ssidb.Txn)}
		resp, fatal := s.handle(payload)
		for _, tx := range s.txns {
			tx.Abort()
			srv.adm.release()
		}

		cur := &cursor{b: resp}
		status := cur.u8()
		cur.u32() // reqID
		if cur.bad {
			t.Fatalf("unparseable response header for %x", payload)
		}
		switch status {
		case StatusOK:
			if fatal {
				t.Fatalf("OK response flagged fatal for %x", payload)
			}
		case StatusErr:
			code := cur.u8()
			cur.u8() // flags
			cur.bytes16()
			if cur.bad {
				t.Fatalf("malformed error body for %x", payload)
			}
			if fatal && code != CodeProtocol {
				t.Fatalf("fatal response with non-protocol code %d for %x", code, payload)
			}
		default:
			t.Fatalf("unknown status %d for %x", status, payload)
		}
		if len(resp) > MaxFrame {
			t.Fatalf("response %d bytes exceeds MaxFrame", len(resp))
		}
	})
}
