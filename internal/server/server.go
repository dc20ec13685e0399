package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ssi/ssidb"
)

// errWALDegraded wraps a commit whose in-memory effects are published but
// whose durability is unknown (the WAL flusher hit a sticky I/O error).
var errWALDegraded = errors.New("server: commit durability unknown (WAL degraded)")

// Config configures a Server. The zero value of every field selects a
// usable default; only DB is required.
type Config struct {
	// DB is the engine the server fronts. Required.
	DB *ssidb.DB

	// MPL caps the number of concurrently executing transactions (batch or
	// interactive) across all connections — the admission control of the
	// paper's §6 thrashing fix. 0 = uncapped.
	MPL int
	// QueueDepth bounds the admission FIFO queue; beyond it transactions
	// are refused immediately with CodeQueueFull. Default 4×MPL.
	QueueDepth int
	// QueueTimeout bounds one transaction's queue wait; past it the
	// transaction is refused with CodeQueueTimeout. Default 1s.
	QueueTimeout time.Duration

	// MaxConns caps concurrent connections; excess connections get one
	// CodeConnLimit error frame and are closed (fast refusal — the client
	// learns why instead of hanging in the accept backlog). Default 1024.
	MaxConns int

	// IdleTimeout bounds how long a session may sit with no open
	// transaction between requests. Default 5m.
	IdleTimeout time.Duration
	// TxnTimeout bounds how long a session holding an open interactive
	// transaction may go silent. It is the fault-tolerance bound: an open
	// transaction pins locks, SIREAD entries and an admission slot, so a
	// slow or dead client is cut off (transactions aborted, slot released)
	// after this long rather than wedging other sessions. Default 10s.
	TxnTimeout time.Duration
	// WriteTimeout bounds each response flush, so a client that stops
	// reading cannot block a session goroutine forever. Default 10s.
	WriteTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxConns <= 0 {
		c.MaxConns = 1024
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.TxnTimeout <= 0 {
		c.TxnTimeout = 10 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	return c
}

// Server is the TCP front end. See doc.go for the protocol and the session
// lifecycle.
type Server struct {
	cfg Config
	db  *ssidb.DB
	adm *admission
	ln  net.Listener

	draining atomic.Bool

	mu       sync.Mutex
	sessions map[*session]struct{}
	wg       sync.WaitGroup

	conns       atomic.Int32
	accepted    atomic.Uint64
	refused     atomic.Uint64
	txnsServed  atomic.Uint64
	protoErrors atomic.Uint64
}

// Listen binds addr and returns a server ready to Serve.
func Listen(addr string, cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB is required")
	}
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Server{
		cfg:      cfg,
		db:       cfg.DB,
		adm:      newAdmission(cfg.MPL, cfg.QueueDepth, cfg.QueueTimeout),
		ln:       ln,
		sessions: make(map[*session]struct{}),
	}, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// DB returns the engine the server fronts, for in-process embedders that
// mix direct access (bulk loads, admin scans) with served traffic.
func (s *Server) DB() *ssidb.DB { return s.db }

// Serve accepts connections until the listener is closed (by Shutdown). It
// returns nil on a drain-initiated close and the accept error otherwise.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		if s.draining.Load() {
			conn.Close()
			continue
		}
		if int(s.conns.Load()) >= s.cfg.MaxConns {
			s.refused.Add(1)
			// Fast refusal off the accept path: one error frame, then close.
			go func(c net.Conn) {
				c.SetWriteDeadline(time.Now().Add(time.Second))
				writeFramed(c, appendErrResponse(newFrame(nil), 0, ErrConnLimit))
				c.Close()
			}(conn)
			continue
		}
		s.accepted.Add(1)
		s.conns.Add(1)
		sess := &session{srv: s, conn: serverConn(conn)}
		s.mu.Lock()
		s.sessions[sess] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go sess.run()
	}
}

// Shutdown drains the server: the listener closes (new connections are
// refused at the TCP level), sessions with no open transaction are woken
// and closed, sessions holding transactions may finish them — new
// transactions are refused with CodeShutdown — and Shutdown returns when
// every session has exited. If ctx expires first, remaining connections are
// force-closed (their transactions abort through the normal session
// teardown) and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	s.ln.Close()
	s.mu.Lock()
	for sess := range s.sessions {
		if sess.openTxns.Load() == 0 {
			// Wake the idle read; the session sees draining and exits.
			sess.conn.SetReadDeadline(time.Now())
		}
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for sess := range s.sessions {
			sess.conn.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Stats is the server-layer counter snapshot.
type Stats struct {
	Conns       int    // connections currently open
	Accepted    uint64 // connections accepted since start
	Refused     uint64 // connections refused at MaxConns
	TxnsServed  uint64 // transactions completed (committed or aborted)
	ProtoErrors uint64 // sessions closed for protocol violations
	Draining    bool
}

// StatsSnapshot returns the server, admission and engine counters.
func (s *Server) StatsSnapshot() (Stats, AdmissionStats, ssidb.Stats) {
	return Stats{
		Conns:       int(s.conns.Load()),
		Accepted:    s.accepted.Load(),
		Refused:     s.refused.Load(),
		TxnsServed:  s.txnsServed.Load(),
		ProtoErrors: s.protoErrors.Load(),
		Draining:    s.draining.Load(),
	}, s.adm.stats(), s.db.StatsSnapshot()
}

// statsJSON is the MsgStats response document.
type statsJSON struct {
	Server    Stats
	Admission AdmissionStats
	DB        ssidb.Stats
}

// --- session ---

// session is one connection's state, owned by its goroutine. openTxns is
// atomic because Shutdown reads it from outside to decide whether the
// session is safe to wake-and-close.
type session struct {
	srv  *Server
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	buf   []byte // frame read buffer, reused across requests
	out   []byte // response frame, built in place and reused across requests
	table string // decodeOp's one-entry table-name cache

	txns     map[uint64]*ssidb.Txn // open interactive transactions
	nextTxn  uint64
	openTxns atomic.Int32
}

func (s *session) run() {
	defer func() {
		// Teardown releases everything a dead client could otherwise pin:
		// open transactions abort (dropping their locks and SIREAD entries)
		// and their admission slots return to the pool.
		for _, tx := range s.txns {
			tx.Abort()
			s.srv.adm.release()
			s.srv.txnsServed.Add(1)
		}
		s.openTxns.Store(0)
		s.conn.Close()
		s.srv.mu.Lock()
		delete(s.srv.sessions, s)
		s.srv.mu.Unlock()
		s.srv.conns.Add(-1)
		s.srv.wg.Done()
	}()
	s.br = bufio.NewReaderSize(s.conn, 32<<10)
	s.bw = bufio.NewWriterSize(s.conn, 32<<10)
	s.txns = make(map[uint64]*ssidb.Txn)
	for {
		// The read deadline is the robustness core: an idle session gets
		// IdleTimeout, but a session holding an open transaction gets the
		// much shorter TxnTimeout — it is pinning locks and an admission
		// slot, and a client that stops talking must not hold them. The
		// write deadline covers any bufio auto-flush during handling.
		wait := s.srv.cfg.IdleTimeout
		if len(s.txns) > 0 {
			wait = s.srv.cfg.TxnTimeout
		}
		s.conn.SetReadDeadline(time.Now().Add(wait))
		s.conn.SetWriteDeadline(time.Now().Add(s.srv.cfg.WriteTimeout))
		payload, err := readFrame(s.br, s.buf)
		if err != nil {
			if errors.Is(err, errFrameTooLarge) {
				// Oversized frame: the stream cannot be resynchronised.
				// One best-effort error frame, then close.
				s.srv.protoErrors.Add(1)
				writeFramed(s.bw, appendErrResponse(newFrame(s.out), 0, err))
				s.bw.Flush()
			}
			return
		}
		s.buf = payload[:cap(payload)]
		_, fatal := s.handle(payload)
		if err := writeFramed(s.bw, s.out); err != nil {
			return
		}
		// Pipelining: flush only when no further request is already
		// buffered, so a burst of requests costs one syscall each way.
		if fatal || s.br.Buffered() == 0 {
			s.conn.SetWriteDeadline(time.Now().Add(s.srv.cfg.WriteTimeout))
			if err := s.bw.Flush(); err != nil {
				return
			}
		}
		if fatal {
			s.srv.protoErrors.Add(1)
			return
		}
		if s.srv.draining.Load() && len(s.txns) == 0 {
			return // drained: nothing open, close the session
		}
	}
}

// handle dispatches one request, builds its response frame in s.out and
// returns the response payload plus whether the connection must close
// (protocol violations: the peer is not speaking our protocol, so no further
// frame can be trusted).
func (s *session) handle(payload []byte) (resp []byte, fatal bool) {
	s.out, fatal = s.respond(payload)
	return s.out[frameHdr:], fatal
}

// respond runs one request and returns its response frame, built in place
// after newFrame(s.out).
func (s *session) respond(payload []byte) (frame []byte, fatal bool) {
	c := &cursor{b: payload}
	msgType := c.u8()
	reqID := c.u32()
	if c.bad {
		return appendErrResponse(newFrame(s.out), 0, fmt.Errorf("%w: short request header", errProtocol)), true
	}
	out := newFrame(s.out)
	out = append(out, StatusOK)
	out = appendU32(out, reqID)

	fail := func(err error) ([]byte, bool) {
		code, _ := errToWire(err)
		return appendErrResponse(newFrame(s.out), reqID, err), code == CodeProtocol
	}

	switch msgType {
	case MsgPing:
		return out, false

	case MsgStats:
		sv, adm, db := s.srv.StatsSnapshot()
		j, err := json.Marshal(statsJSON{Server: sv, Admission: adm, DB: db})
		if err != nil {
			return fail(err)
		}
		return append(out, j...), false

	case MsgTxn:
		if s.srv.draining.Load() {
			return fail(ErrShutdown)
		}
		iso := ssidb.Isolation(c.u8())
		flags := c.u8()
		nops := int(c.u16())
		if c.bad || iso > ssidb.S2PL {
			return fail(fmt.Errorf("%w: bad txn header", errProtocol))
		}
		if err := s.srv.adm.acquire(); err != nil {
			return fail(err)
		}
		defer s.srv.adm.release()
		s.srv.txnsServed.Add(1)
		tx := s.srv.db.BeginTx(iso, ssidb.TxnOptions{ReadOnly: flags&FlagReadOnly != 0})
		for i := 0; i < nops; i++ {
			op, err := decodeOp(c, &s.table)
			if err != nil {
				tx.Abort()
				return fail(err)
			}
			out, err = execOp(tx, op, out)
			if err != nil {
				tx.Abort()
				return fail(err)
			}
		}
		if !c.empty() {
			tx.Abort()
			return fail(fmt.Errorf("%w: trailing bytes after %d ops", errProtocol, nops))
		}
		// A response that cannot be sent must not follow a commit: the
		// client would be told the batch failed after its writes were made.
		if framedLen(out) > MaxFrame {
			tx.Abort()
			return fail(fmt.Errorf("server: response %d bytes exceeds frame limit", framedLen(out)))
		}
		if err := tx.Commit(); err != nil {
			return fail(commitErr(err))
		}
		return out, false

	case MsgBegin:
		if s.srv.draining.Load() {
			return fail(ErrShutdown)
		}
		iso := ssidb.Isolation(c.u8())
		flags := c.u8()
		if c.bad || iso > ssidb.S2PL {
			return fail(fmt.Errorf("%w: bad begin", errProtocol))
		}
		if err := s.srv.adm.acquire(); err != nil {
			return fail(err)
		}
		tx := s.srv.db.BeginTx(iso, ssidb.TxnOptions{ReadOnly: flags&FlagReadOnly != 0})
		s.nextTxn++
		id := s.nextTxn
		s.txns[id] = tx
		s.openTxns.Store(int32(len(s.txns)))
		return appendU64(out, id), false

	case MsgOp:
		id := c.u64()
		tx := s.txns[id]
		if tx == nil {
			if c.bad {
				return fail(fmt.Errorf("%w: short op", errProtocol))
			}
			return fail(ErrUnknownTxn)
		}
		op, err := decodeOp(c, &s.table)
		if err != nil {
			s.closeTxn(id, tx, false)
			return fail(err)
		}
		out, err = execOp(tx, op, out)
		if err != nil {
			// Abort-class errors rolled the transaction back already;
			// statement-level ones (ErrKeyExists, ErrReadOnly) leave it
			// open and usable.
			if ssidb.Retryable(err) || errors.Is(err, ssidb.ErrTxnDone) {
				s.closeTxn(id, tx, false)
			}
			return fail(err)
		}
		if framedLen(out) > MaxFrame {
			s.closeTxn(id, tx, true)
			return fail(fmt.Errorf("server: response %d bytes exceeds frame limit", framedLen(out)))
		}
		return out, false

	case MsgCommit:
		id := c.u64()
		tx := s.txns[id]
		if tx == nil {
			return fail(ErrUnknownTxn)
		}
		err := tx.Commit()
		s.closeTxn(id, tx, false) // Commit finished it either way
		if err != nil {
			return fail(commitErr(err))
		}
		return out, false

	case MsgAbort:
		id := c.u64()
		tx := s.txns[id]
		if tx == nil {
			return fail(ErrUnknownTxn)
		}
		s.closeTxn(id, tx, true)
		return out, false

	default:
		return fail(fmt.Errorf("%w: unknown message type %d", errProtocol, msgType))
	}
}

// closeTxn retires an interactive transaction: drop it from the session
// table, return its admission slot, optionally abort it (when the engine
// has not already finished it).
func (s *session) closeTxn(id uint64, tx *ssidb.Txn, abort bool) {
	if abort {
		tx.Abort()
	}
	delete(s.txns, id)
	s.openTxns.Store(int32(len(s.txns)))
	s.srv.adm.release()
	s.srv.txnsServed.Add(1)
}

// commitErr classifies a Commit error: abort-class failures pass through
// (they carry their own codes); anything else is the WAL reporting that the
// commit's durability is unknown.
func commitErr(err error) error {
	if ssidb.Retryable(err) || errors.Is(err, ssidb.ErrTxnDone) {
		return err
	}
	return fmt.Errorf("%w: %v", errWALDegraded, err)
}

// dup copies a value out of the session's reused frame buffer. Write paths
// need it: the version store retains the value slice it is given, and the
// frame buffer is overwritten by the next request. (Keys are copied by the
// store itself, once, when a row is first inserted.)
func dup(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// execOp runs one operation against tx, appending its result encoding to
// the response frame out.
func execOp(tx *ssidb.Txn, op Op, out []byte) ([]byte, error) {
	switch op.Type {
	case OpGet:
		v, ok, err := tx.Get(op.Table, op.Key)
		if err != nil {
			return out, err
		}
		if ok {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
		return appendBytes32(out, v), nil
	case OpPut:
		return out, tx.Put(op.Table, op.Key, dup(op.Val))
	case OpInsert:
		return out, tx.Insert(op.Table, op.Key, dup(op.Val))
	case OpDelete:
		return out, tx.Delete(op.Table, op.Key)
	case OpScan:
		countAt := len(out)
		out = appendU32(out, 0)
		n := uint32(0)
		body := out
		fn := func(k, v []byte) bool {
			body = appendBytes16(body, k)
			body = appendBytes32(body, v)
			n++
			return framedLen(body) <= MaxFrame
		}
		var err error
		if op.Limit > 0 {
			err = tx.ScanLimit(op.Table, op.From, op.To, op.Limit, fn)
		} else {
			err = tx.Scan(op.Table, op.From, op.To, fn)
		}
		if err != nil {
			return out, err
		}
		binary.LittleEndian.PutUint32(body[countAt:countAt+4], n)
		return body, nil
	case OpAdd:
		// Server-side read-modify-write of a big-endian i64 cell; lets a
		// client run a money transfer as one batched round trip.
		v, ok, err := tx.Get(op.Table, op.Key)
		if err != nil {
			return out, err
		}
		var cur int64
		if ok && len(v) == 8 {
			cur = int64(binary.BigEndian.Uint64(v))
		}
		nv := cur + op.Delta
		cell := make([]byte, 8)
		binary.BigEndian.PutUint64(cell, uint64(nv))
		if err := tx.Put(op.Table, op.Key, cell); err != nil {
			return out, err
		}
		return appendU64(out, uint64(nv)), nil
	default:
		return out, fmt.Errorf("%w: unknown op %d", errProtocol, op.Type)
	}
}
