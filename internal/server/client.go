package server

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"time"

	"ssi/ssidb"
)

// Client is one connection to an ssiserver. A Client is intended for use by
// a single goroutine (the benchmark drivers open one per worker); it issues
// one request at a time and matches the response by request id. Do allocates
// nothing: each request is framed in place in one reused buffer and written
// with one Write, each response is read into another, and Do's results, which
// alias that buffer, are reused too.
type Client struct {
	conn    net.Conn
	br      *bufio.Reader
	buf     []byte // response frame; Do's results alias it
	out     []byte // request frame, built in place
	cur     cursor // over buf's response body
	results []OpResult
	req     uint32

	// Timeout bounds each round trip (write + response read). Zero means
	// no deadline.
	Timeout time.Duration
}

// ErrRequestTooLarge reports a request the client refused to send because
// the wire cannot carry it: a table, key or scan bound above 65 535 bytes,
// more than 65 535 ops in one batch, or a request above MaxFrame. Nothing was
// sent, so the connection and any open transaction are unaffected.
var ErrRequestTooLarge = errors.New("server: request too large for the wire")

// Dial connects to an ssiserver.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	conn = clientConn(conn)
	return &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 32<<10),
	}, nil
}

// Close closes the connection. Open transactions are aborted by the server
// when it notices (immediately on the closed read, at the latest at its
// TxnTimeout).
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends one request frame (header + body) and decodes the
// response header, returning a cursor over the OK body or the decoded
// server error. A request above MaxFrame is refused before anything is sent.
func (c *Client) roundTrip(msgType byte, body func([]byte) []byte) (*cursor, error) {
	if c.Timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.Timeout))
	}
	c.req++
	out := newFrame(c.out)
	out = append(out, msgType)
	out = appendU32(out, c.req)
	out = body(out)
	c.out = out
	if framedLen(out) > MaxFrame {
		return nil, fmt.Errorf("%w: a %d-byte request; the limit is %d", ErrRequestTooLarge, framedLen(out), MaxFrame)
	}
	if err := writeFramed(c.conn, out); err != nil {
		return nil, err
	}
	payload, err := readFrame(c.br, c.buf)
	if err != nil {
		return nil, err
	}
	c.buf = payload[:cap(payload)]
	c.cur = cursor{b: payload}
	cur := &c.cur
	status := cur.u8()
	reqID := cur.u32()
	if cur.bad {
		return nil, fmt.Errorf("%w: short response header", errProtocol)
	}
	// reqID 0 marks a connection-level error frame (connection refused at
	// the cap, unparseable request header): the server could not attribute
	// it to a request, so accept it for whichever request is in flight.
	if reqID != c.req && !(status == StatusErr && reqID == 0) {
		return nil, fmt.Errorf("%w: response id %d for request %d", errProtocol, reqID, c.req)
	}
	if status == StatusErr {
		code := cur.u8()
		flags := cur.u8()
		msg := cur.bytes16()
		if cur.bad {
			return nil, fmt.Errorf("%w: malformed error body", errProtocol)
		}
		return nil, &ProtoError{Code: code, Retryable: flags&RetryableFlag != 0, Msg: string(msg)}
	}
	return cur, nil
}

// Ping round-trips an empty request.
func (c *Client) Ping() error {
	_, err := c.roundTrip(MsgPing, func(b []byte) []byte { return b })
	return err
}

// Stats fetches the server's stats snapshot as raw JSON (see statsJSON for
// the document shape).
func (c *Client) Stats() ([]byte, error) {
	cur, err := c.roundTrip(MsgStats, func(b []byte) []byte { return b })
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), cur.b...), nil
}

// KV is one scanned row.
type KV struct {
	Key, Val []byte
}

// OpResult is one operation's decoded result. Found/Val are set for OpGet,
// Rows for OpScan, Added for OpAdd; writes have no result payload. The byte
// slices in a result Do returns alias the Client's frame buffer: they are
// valid until the next call on the same Client, so copy what must outlive it.
type OpResult struct {
	Found bool
	Val   []byte
	Rows  []KV
	Added int64
}

// decodeResult decodes one op's result into res, reusing the capacity of
// res.Rows. The byte slices it sets alias the frame under cur.
func decodeResult(cur *cursor, opType byte, res *OpResult) error {
	*res = OpResult{Rows: res.Rows[:0]}
	switch opType {
	case OpGet:
		res.Found = cur.u8() != 0
		res.Val = cur.bytes32()
	case OpPut, OpInsert, OpDelete:
	case OpScan:
		n := int(cur.u32())
		for i := 0; i < n && !cur.bad; i++ {
			k := cur.bytes16()
			v := cur.bytes32()
			res.Rows = append(res.Rows, KV{Key: k, Val: v})
		}
	case OpAdd:
		res.Added = int64(cur.u64())
	}
	if cur.bad {
		return fmt.Errorf("%w: malformed result", errProtocol)
	}
	return nil
}

// Do runs ops as one server-side transaction in a single round trip (the
// batched API: begin, every op, and commit are all amortized into one
// request). On error no result is returned and the transaction did not
// commit; Retryable classifies whether a fresh attempt makes sense. The
// returned slice and the bytes its results hold belong to the Client and are
// valid until its next call. A batch the wire cannot carry fails with
// ErrRequestTooLarge before anything is sent.
func (c *Client) Do(iso ssidb.Isolation, readOnly bool, ops []Op) ([]OpResult, error) {
	if len(ops) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: %d ops in one batch; the limit is %d", ErrRequestTooLarge, len(ops), math.MaxUint16)
	}
	for i := range ops {
		if err := checkOp(&ops[i]); err != nil {
			return nil, err
		}
	}
	cur, err := c.roundTrip(MsgTxn, func(b []byte) []byte {
		b = append(b, byte(iso))
		var flags byte
		if readOnly {
			flags |= FlagReadOnly
		}
		b = append(b, flags)
		b = appendU16(b, uint16(len(ops)))
		for _, op := range ops {
			b = appendOp(b, op)
		}
		return b
	})
	if err != nil {
		return nil, err
	}
	if cap(c.results) < len(ops) {
		c.results = make([]OpResult, len(ops))
	}
	results := c.results[:len(ops)]
	for i, op := range ops {
		if err := decodeResult(cur, op.Type, &results[i]); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// RemoteTxn is an open interactive transaction on the server. It satisfies
// the smallbank.Tx interface, so the workload programs run unmodified
// against a remote database. An abort-class error finishes the transaction
// on the server; the RemoteTxn marks itself done and further operations
// fail client-side with ssidb.ErrTxnDone.
type RemoteTxn struct {
	c    *Client
	id   uint64
	done bool
}

// Begin opens an interactive transaction. The server holds an admission
// slot for it until Commit or Abort, so interactive transactions are
// admission-controlled exactly like batched ones.
func (c *Client) Begin(iso ssidb.Isolation, readOnly bool) (*RemoteTxn, error) {
	cur, err := c.roundTrip(MsgBegin, func(b []byte) []byte {
		b = append(b, byte(iso))
		var flags byte
		if readOnly {
			flags |= FlagReadOnly
		}
		return append(b, flags)
	})
	if err != nil {
		return nil, err
	}
	id := cur.u64()
	if cur.bad {
		return nil, fmt.Errorf("%w: malformed begin response", errProtocol)
	}
	return &RemoteTxn{c: c, id: id}, nil
}

// op runs one operation in the transaction. The result's byte slices alias
// the Client's frame buffer, so the exported methods copy them out.
func (t *RemoteTxn) op(op Op) (res OpResult, err error) {
	if t.done {
		return res, ssidb.ErrTxnDone
	}
	if err := checkOp(&op); err != nil {
		return res, err
	}
	cur, err := t.c.roundTrip(MsgOp, func(b []byte) []byte {
		b = appendU64(b, t.id)
		return appendOp(b, op)
	})
	if err != nil {
		// Mirror the server's statement-vs-abort split: abort-class errors
		// (and transport failures) finish the transaction.
		if ssidb.Retryable(err) || !isStatementLevel(err) {
			t.done = true
		}
		return res, err
	}
	err = decodeResult(cur, op.Type, &res)
	return res, err
}

// isStatementLevel reports the errors after which the server-side
// transaction is still open (ErrKeyExists, ErrReadOnly, and a request the
// client refused to send).
func isStatementLevel(err error) bool {
	if errors.Is(err, ErrRequestTooLarge) {
		return true
	}
	var pe *ProtoError
	if !errors.As(err, &pe) {
		return false
	}
	return pe.Code == CodeKeyExists || pe.Code == CodeReadOnly
}

// Get reads one key.
func (t *RemoteTxn) Get(table string, key []byte) ([]byte, bool, error) {
	res, err := t.op(Op{Type: OpGet, Table: table, Key: key})
	if err != nil {
		return nil, false, err
	}
	return append([]byte(nil), res.Val...), res.Found, nil
}

// Put writes one key.
func (t *RemoteTxn) Put(table string, key, val []byte) error {
	_, err := t.op(Op{Type: OpPut, Table: table, Key: key, Val: val})
	return err
}

// Insert writes a key that must not already exist.
func (t *RemoteTxn) Insert(table string, key, val []byte) error {
	_, err := t.op(Op{Type: OpInsert, Table: table, Key: key, Val: val})
	return err
}

// Delete removes one key.
func (t *RemoteTxn) Delete(table string, key []byte) error {
	_, err := t.op(Op{Type: OpDelete, Table: table, Key: key})
	return err
}

// Scan returns the rows in [from, to) (nil bounds = unbounded), at most
// limit rows when limit > 0.
func (t *RemoteTxn) Scan(table string, from, to []byte, limit int) ([]KV, error) {
	res, err := t.op(Op{Type: OpScan, Table: table, From: from, To: to, Limit: limit})
	if err != nil {
		return nil, err
	}
	for i, kv := range res.Rows {
		res.Rows[i] = KV{Key: append([]byte(nil), kv.Key...), Val: append([]byte(nil), kv.Val...)}
	}
	return res.Rows, nil
}

// Add atomically adds delta to the big-endian i64 cell at key (absent reads
// as 0) and returns the new value.
func (t *RemoteTxn) Add(table string, key []byte, delta int64) (int64, error) {
	res, err := t.op(Op{Type: OpAdd, Table: table, Key: key, Delta: delta})
	if err != nil {
		return 0, err
	}
	return res.Added, nil
}

// Commit commits the transaction. On a nil return the commit is durable
// (the server answers only after the WAL fsync).
func (t *RemoteTxn) Commit() error {
	if t.done {
		return ssidb.ErrTxnDone
	}
	t.done = true
	_, err := t.c.roundTrip(MsgCommit, func(b []byte) []byte {
		return appendU64(b, t.id)
	})
	return err
}

// Abort rolls the transaction back. Aborting a finished transaction is a
// no-op.
func (t *RemoteTxn) Abort() error {
	if t.done {
		return nil
	}
	t.done = true
	_, err := t.c.roundTrip(MsgAbort, func(b []byte) []byte {
		return appendU64(b, t.id)
	})
	return err
}
