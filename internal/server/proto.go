package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"ssi/ssidb"
)

// Wire protocol. Everything on the wire is a frame:
//
//	u32 LE payloadLen | payload
//
// bounded by MaxFrame. A request payload is
//
//	u8 msgType | u32 LE reqID | body
//
// and every request produces exactly one response frame
//
//	u8 status | u32 LE reqID | body
//
// carrying the same reqID, so clients may pipeline requests and match
// responses by order or by id. See doc.go for the message catalogue and the
// per-message body layouts.

// MaxFrame is the maximum frame payload size either side will accept.
// Oversized frames are a protocol error: the connection is poisoned (the
// remainder cannot be resynchronised) and is closed after an error response.
const MaxFrame = 1 << 20

// Request message types.
const (
	// MsgTxn runs a whole transaction in one round trip:
	// u8 iso | u8 flags | u16 nops | ops. Response: concatenated op results.
	MsgTxn = 1
	// MsgPing is a no-op liveness probe. Empty body and response.
	MsgPing = 2
	// MsgStats returns the server+engine stats snapshot as JSON.
	MsgStats = 3
	// MsgBegin opens an interactive transaction: u8 iso | u8 flags.
	// Response: u64 LE txnID. The admission slot is held until MsgCommit or
	// MsgAbort (or session death).
	MsgBegin = 4
	// MsgOp runs one operation in an open transaction: u64 LE txnID | op.
	// Response: the op's result.
	MsgOp = 5
	// MsgCommit commits an open transaction: u64 LE txnID. Empty response.
	MsgCommit = 6
	// MsgAbort rolls back an open transaction: u64 LE txnID. Empty response.
	MsgAbort = 7
)

// Begin/Txn flags.
const (
	// FlagReadOnly declares the transaction read-only (ssidb
	// TxnOptions.ReadOnly): the engine drops SSI out-edge tracking and, once
	// the snapshot is safe, SIREAD acquisition.
	FlagReadOnly = 1
)

// Operation types, the per-op leading byte inside MsgTxn and MsgOp.
//
//	OpGet    u8 | u16 tableLen | table | u16 keyLen | key
//	OpPut    u8 | table | key | u32 valLen | val
//	OpDelete u8 | table | key
//	OpInsert u8 | table | key | u32 valLen | val
//	OpScan   u8 | table | u16 fromLen | from | u16 toLen | to | u32 limit
//	OpAdd    u8 | table | key | i64 LE delta
//
// Results (concatenated in op order in the OK response body):
//
//	OpGet    u8 found | u32 valLen | val
//	OpPut/OpDelete/OpInsert  (empty)
//	OpScan   u32 nrows | nrows * (u16 keyLen | key | u32 valLen | val)
//	OpAdd    i64 LE new value
//
// OpScan's empty from/to mean unbounded; limit 0 means unlimited. OpAdd is a
// server-side read-modify-write of a big-endian i64 cell (absent reads as
// 0), letting a client express a money-conserving transfer as one batched
// MsgTxn round trip.
const (
	OpGet    = 1
	OpPut    = 2
	OpDelete = 3
	OpInsert = 4
	OpScan   = 5
	OpAdd    = 6
)

// Response status byte.
const (
	StatusOK  = 0
	StatusErr = 1
)

// Error codes carried in StatusErr bodies:
// u8 code | u8 flags (bit0 retryable) | u16 msgLen | msg.
const (
	CodeUnsafe       = 1  // ssidb.ErrUnsafe: dangerous-structure abort
	CodeConflict     = 2  // ssidb.ErrWriteConflict: First-Committer-Wins
	CodeDeadlock     = 3  // ssidb.ErrDeadlock: chosen as deadlock victim
	CodeLockTimeout  = 4  // ssidb.ErrLockTimeout: lock wait abandoned
	CodeQueueFull    = 5  // admission queue at capacity, transaction refused
	CodeQueueTimeout = 6  // queued past the queue-wait deadline
	CodeShutdown     = 7  // server draining: no new transactions
	CodeReadOnly     = 8  // write on a FlagReadOnly transaction
	CodeKeyExists    = 9  // OpInsert on a visibly present key
	CodeTxnDone      = 10 // operation on a finished transaction
	CodeWALDegraded  = 11 // commit's durability unknown: WAL flusher failed
	CodeProtocol     = 12 // malformed frame/request; connection closed
	CodeUnknownTxn   = 13 // MsgOp/Commit/Abort with an unknown txnID
	CodeInternal     = 14 // unclassified server-side error
	CodeTooLarge     = 15 // frame exceeds MaxFrame; connection closed
	CodeConnLimit    = 16 // connection cap reached; connection refused
)

// RetryableFlag is bit0 of the error-body flags byte: the transaction was
// cleanly rolled back (or never admitted) and an identical retry on a fresh
// transaction may succeed.
const RetryableFlag = 1

// Admission-layer errors (the engine has its own abort-class sentinels; these
// are the server's).
var (
	// ErrQueueFull reports an admission queue at capacity: beyond the MPL
	// cap and QueueDepth waiters, refusing immediately beats queueing —
	// the client backs off with full information instead of adding load.
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrQueueTimeout reports a queue wait that exceeded QueueTimeout.
	ErrQueueTimeout = errors.New("server: admission queue wait timed out")
	// ErrShutdown reports a transaction refused because the server is
	// draining.
	ErrShutdown = errors.New("server: shutting down")
	// ErrConnLimit reports a connection refused at the connection cap.
	ErrConnLimit = errors.New("server: connection limit reached")
	// ErrUnknownTxn reports an operation on a transaction id this session
	// does not hold open.
	ErrUnknownTxn = errors.New("server: unknown transaction id")
	// errProtocol is the catch-all decode failure; the session answers with
	// CodeProtocol and closes.
	errProtocol = errors.New("server: protocol error")
	// errFrameTooLarge is a frame length above MaxFrame; the session answers
	// with CodeTooLarge and closes.
	errFrameTooLarge = errors.New("server: frame too large")
)

// frameHdr is the size of a frame's length prefix. Both sides build every
// frame in place in a reused buffer: newFrame reserves the prefix, the
// payload is appended after it, and writeFramed fills the prefix in, so a
// frame costs one Write and no allocation.
const frameHdr = 4

// newFrame empties b and reserves the length prefix of the frame built in it.
func newFrame(b []byte) []byte { return append(b[:0], 0, 0, 0, 0) }

// framedLen is the payload length of a frame built after newFrame.
func framedLen(frame []byte) int { return len(frame) - frameHdr }

// writeFramed fills in the length prefix of a frame built after newFrame and
// writes the whole frame with one Write.
func writeFramed(w io.Writer, frame []byte) error {
	binary.LittleEndian.PutUint32(frame, uint32(framedLen(frame)))
	_, err := w.Write(frame)
	return err
}

// readFrame reads one length-prefixed frame into (a possibly grown) buf and
// returns the payload. The prefix is read into buf too: a local array would
// escape through the io.Reader and cost an allocation per frame. A length
// above MaxFrame poisons the stream: the caller must not read further.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < frameHdr {
		buf = make([]byte, frameHdr)
	}
	hdr := buf[:frameHdr]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: frame length %d exceeds %d", errFrameTooLarge, n, MaxFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// --- request/response body builders (shared by client and server) ---

func appendU16(b []byte, v uint16) []byte {
	var u [2]byte
	binary.LittleEndian.PutUint16(u[:], v)
	return append(b, u[:]...)
}

func appendU32(b []byte, v uint32) []byte {
	var u [4]byte
	binary.LittleEndian.PutUint32(u[:], v)
	return append(b, u[:]...)
}

func appendU64(b []byte, v uint64) []byte {
	var u [8]byte
	binary.LittleEndian.PutUint64(u[:], v)
	return append(b, u[:]...)
}

// appendBytes16 takes a string too, so a table name or a message is appended
// without a conversion that could allocate.
func appendBytes16[T string | []byte](b []byte, p T) []byte {
	b = appendU16(b, uint16(len(p)))
	return append(b, p...)
}

func appendBytes32(b, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}

// cursor is a bounds-checked little-endian reader over one frame payload.
// Every decode failure collapses to errProtocol; the bad flag is sticky so
// call sites can decode a run of fields and test once.
type cursor struct {
	b   []byte
	bad bool
}

func (c *cursor) u8() byte {
	if c.bad || len(c.b) < 1 {
		c.bad = true
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

func (c *cursor) u16() uint16 {
	if c.bad || len(c.b) < 2 {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint16(c.b)
	c.b = c.b[2:]
	return v
}

func (c *cursor) u32() uint32 {
	if c.bad || len(c.b) < 4 {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b)
	c.b = c.b[4:]
	return v
}

func (c *cursor) u64() uint64 {
	if c.bad || len(c.b) < 8 {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b)
	c.b = c.b[8:]
	return v
}

func (c *cursor) bytes(n int) []byte {
	if c.bad || n < 0 || len(c.b) < n {
		c.bad = true
		return nil
	}
	v := c.b[:n]
	c.b = c.b[n:]
	return v
}

func (c *cursor) bytes16() []byte { return c.bytes(int(c.u16())) }
func (c *cursor) bytes32() []byte { return c.bytes(int(c.u32())) }
func (c *cursor) empty() bool     { return len(c.b) == 0 }

// Op is one decoded operation. Byte slices alias the request frame buffer
// and are only valid until the next frame is read into it.
type Op struct {
	Type     byte
	Table    string
	Key      []byte
	Val      []byte // OpPut/OpInsert value
	From, To []byte // OpScan bounds (nil = unbounded)
	Limit    int    // OpScan row cap (0 = unlimited)
	Delta    int64  // OpAdd addend
}

// decodeOp decodes one operation at the cursor. table is the caller's
// one-entry cache of the last table name decoded: Op.Table is a string the
// engine may keep, and comparing the name's bytes with the cache allocates
// nothing, so a session whose ops name one table converts that name once. A
// single entry is all the cache holds, whatever names a client sends.
func decodeOp(c *cursor, table *string) (Op, error) {
	var op Op
	op.Type = c.u8()
	if name := c.bytes16(); string(name) != *table {
		*table = string(name)
	}
	op.Table = *table
	switch op.Type {
	case OpGet, OpDelete:
		op.Key = c.bytes16()
	case OpPut, OpInsert:
		op.Key = c.bytes16()
		op.Val = c.bytes32()
	case OpScan:
		op.From = c.bytes16()
		op.To = c.bytes16()
		op.Limit = int(c.u32())
		if len(op.From) == 0 {
			op.From = nil
		}
		if len(op.To) == 0 {
			op.To = nil
		}
	case OpAdd:
		op.Key = c.bytes16()
		op.Delta = int64(c.u64())
	default:
		c.bad = true
	}
	if c.bad {
		return Op{}, fmt.Errorf("%w: malformed op", errProtocol)
	}
	return op, nil
}

// checkOp reports ErrRequestTooLarge for an op appendOp cannot encode: a
// table, key or scan bound longer than its u16 length prefix can say. (A
// value's u32 prefix cannot overflow within MaxFrame, which the client checks
// on the whole request.)
func checkOp(op *Op) error {
	for _, n := range [...]int{len(op.Table), len(op.Key), len(op.From), len(op.To)} {
		if n > math.MaxUint16 {
			return fmt.Errorf("%w: a %d-byte table, key or scan bound; the limit is %d", ErrRequestTooLarge, n, math.MaxUint16)
		}
	}
	return nil
}

// appendOp encodes one operation (the client-side dual of decodeOp); checkOp
// says whether it can.
func appendOp(b []byte, op Op) []byte {
	b = append(b, op.Type)
	b = appendBytes16(b, op.Table)
	switch op.Type {
	case OpGet, OpDelete:
		b = appendBytes16(b, op.Key)
	case OpPut, OpInsert:
		b = appendBytes16(b, op.Key)
		b = appendBytes32(b, op.Val)
	case OpScan:
		b = appendBytes16(b, op.From)
		b = appendBytes16(b, op.To)
		b = appendU32(b, uint32(op.Limit))
	case OpAdd:
		b = appendBytes16(b, op.Key)
		b = appendU64(b, uint64(op.Delta))
	}
	return b
}

// --- error taxonomy ---

// wireErrors is the error taxonomy, one row per code sent for a sentinel:
// errToWire sends the first row whose err the error wraps, with the row's
// retryable bit — set exactly for ssidb.Retryable's clean aborts and for the
// load-shedding refusals (queue full, queue timeout, connection cap), which
// never started a transaction. An error no row matches is CodeInternal, not
// retryable. ProtoError.Unwrap hands a row's err back on the client, except
// for the framing failures, after which the connection closes.
var wireErrors = [...]struct {
	code      byte
	err       error
	retryable bool
	framing   bool
}{
	{CodeUnsafe, ssidb.ErrUnsafe, true, false},
	{CodeConflict, ssidb.ErrWriteConflict, true, false},
	{CodeDeadlock, ssidb.ErrDeadlock, true, false},
	{CodeLockTimeout, ssidb.ErrLockTimeout, true, false},
	{CodeQueueFull, ErrQueueFull, true, false},
	{CodeQueueTimeout, ErrQueueTimeout, true, false},
	{CodeShutdown, ErrShutdown, false, false},
	{CodeConnLimit, ErrConnLimit, true, false},
	{CodeReadOnly, ssidb.ErrReadOnly, false, false},
	{CodeKeyExists, ssidb.ErrKeyExists, false, false},
	{CodeTxnDone, ssidb.ErrTxnDone, false, false},
	{CodeUnknownTxn, ErrUnknownTxn, false, false},
	{CodeWALDegraded, errWALDegraded, false, false},
	{CodeProtocol, errProtocol, false, true},
	{CodeTooLarge, errFrameTooLarge, false, true},
}

// errToWire classifies err into (code, retryable) by wireErrors.
func errToWire(err error) (code byte, retryable bool) {
	for _, w := range wireErrors {
		if errors.Is(err, w.err) {
			return w.code, w.retryable
		}
	}
	return CodeInternal, false
}

// codeToErr maps a wire code back to the matching local sentinel, so
// errors.Is — and through it ssidb.Retryable — keep working across the
// network boundary (ProtoError.Unwrap returns this).
func codeToErr(code byte) error {
	for _, w := range wireErrors {
		if w.code == code && !w.framing {
			return w.err
		}
	}
	return nil
}

// ProtoError is a server-reported error as seen by the client. Unwrap maps
// the code back to the matching ssidb/server sentinel, so errors.Is and
// ssidb.Retryable classify wire errors exactly as they classify local ones.
type ProtoError struct {
	Code      byte
	Retryable bool
	Msg       string
}

func (e *ProtoError) Error() string {
	return fmt.Sprintf("server error %d: %s", e.Code, e.Msg)
}

func (e *ProtoError) Unwrap() error { return codeToErr(e.Code) }

// Retryable reports whether err should be retried on a fresh transaction:
// the wire retryable bit for protocol errors, ssidb.Retryable for local
// ones. This is the classification the ssibench client loops on.
func Retryable(err error) bool {
	var pe *ProtoError
	if errors.As(err, &pe) {
		return pe.Retryable
	}
	return ssidb.Retryable(err)
}

// appendErrResponse encodes a full StatusErr response payload.
func appendErrResponse(b []byte, reqID uint32, err error) []byte {
	code, retry := errToWire(err)
	b = append(b, StatusErr)
	b = appendU32(b, reqID)
	b = append(b, code)
	var flags byte
	if retry {
		flags |= RetryableFlag
	}
	b = append(b, flags)
	msg := err.Error()
	if len(msg) > 512 {
		msg = msg[:512]
	}
	b = appendBytes16(b, msg)
	return b
}
