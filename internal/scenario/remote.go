package scenario

// Rows that drive a running ssiserver over TCP, one connection per worker:
// end-to-end commit latency (retries and backoff included) beside throughput
// and the server's admission counters. This is the measurement rig for
// admission control: at hundreds of connections a capped MPL should match or
// beat the uncapped server on commits/s while bounding p99 — the paper's §6
// thrashing fix observed from the client side.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"ssi/internal/harness"
	"ssi/internal/server"
	"ssi/internal/workload/kvmix"
	"ssi/internal/workload/smallbank"
	"ssi/ssidb"
)

// maxAttempts bounds one transaction's retries: a worker stuck behind a
// server that refuses everything must still see its window end.
const maxAttempts = 16

// backoff sleeps with full jitter over a capped exponential ceiling — the
// RunRetry policy, applied client-side (see ssidb.Retryable). Admission
// refusals (queue full / queue timeout) get a 64x longer ceiling: they signal
// sustained overload, not a lost race, so hammering the admission queue at
// conflict-retry cadence just converts the queue into a refusal storm.
func backoff(r *rand.Rand, attempt int, err error) {
	if attempt == 0 {
		return
	}
	base := 8 * time.Microsecond
	if errors.Is(err, server.ErrQueueFull) || errors.Is(err, server.ErrQueueTimeout) {
		base = 512 * time.Microsecond
	}
	time.Sleep(time.Duration(r.Int63n(int64(base) << min(attempt, 7))))
}

func dial(addr string) (*server.Client, error) {
	c, err := server.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	c.Timeout = 30 * time.Second
	return c, nil
}

func (row Row) runRemote(c Cell, o harness.Options) (harness.Result, error) {
	ctl, err := dial(c.Server)
	if err != nil {
		return harness.Result{}, err
	}
	defer ctl.Close()
	if err := row.RemoteLoad(ctl); err != nil {
		return harness.Result{}, fmt.Errorf("load %s: %w", row.Name, err)
	}
	conns := make([]*server.Client, c.Workers)
	for i := range conns {
		if conns[i], err = dial(c.Server); err != nil {
			return harness.Result{}, err
		}
		defer conns[i].Close()
	}

	var retries atomic.Uint64
	var statsErr error
	o.Stats = func() harness.Window {
		// The server's MsgStats document.
		var st struct {
			Admission server.AdmissionStats
			DB        ssidb.Stats
		}
		raw, err := ctl.Stats()
		if err == nil {
			err = json.Unmarshal(raw, &st)
		}
		if err != nil && statsErr == nil {
			statsErr = fmt.Errorf("stats: %w", err)
		}
		return harness.Window{Stats: st.DB, Retries: retries.Load(),
			Admitted: st.Admission.Admitted, RefusedFull: st.Admission.RefusedFull, RefusedWait: st.Admission.RefusedWait,
			QueueWaitTime: st.Admission.QueueWaitTime, AdmissionMPL: st.Admission.MPL}
	}
	res := harness.RunWorkers(func(w int) harness.TxnFunc {
		once := row.RemoteTxn(conns[w], c.Iso)
		return func(r *rand.Rand) error {
			for attempt := 0; ; attempt++ {
				err := once(r)
				if err == nil || !server.Retryable(err) || attempt == maxAttempts {
					return err
				}
				retries.Add(1)
				backoff(r, attempt, err)
			}
		}
	}, o)
	res.Row, res.Iso = row.Name, c.Iso.String()
	return res, statsErr
}

// interactive runs body as one conversational transaction: Begin, each of its
// statements a round trip, Commit.
func interactive(c *server.Client, iso ssidb.Isolation, body func(*server.RemoteTxn) error) error {
	tx, err := c.Begin(iso, false)
	if err != nil {
		return err
	}
	if err := body(tx); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

func remoteKvmix(name, title string, cfg kvmix.Config) Row {
	choose := cfg.Chooser()
	return Row{
		Name: name, Title: title,
		Note: "needs -server; workers are -connections; Retries and the admission counters are the server's answer to overload",
		Isos: ssiOnly,
		RemoteLoad: func(c *server.Client) error {
			const batch = 500
			ops := make([]server.Op, 0, batch)
			for lo := 0; lo < cfg.Keys; lo += batch {
				ops = ops[:0]
				for i := lo; i < min(lo+batch, cfg.Keys); i++ {
					ops = append(ops, server.Op{Type: server.OpPut, Table: kvmix.Table, Key: kvmix.Key(i), Val: []byte("v")})
				}
				if _, err := c.Do(ssidb.SnapshotIsolation, false, ops); err != nil {
					return err
				}
			}
			return nil
		},
		// One kvmix transaction is one batched round trip: begin, the whole
		// read/write set and commit amortized into one request.
		RemoteTxn: func(c *server.Client, iso ssidb.Isolation) harness.TxnFunc {
			ops, val := make([]server.Op, cfg.Reads+cfg.Writes), []byte("w")
			return func(r *rand.Rand) error {
				for i := range ops {
					ops[i] = server.Op{Type: server.OpGet, Table: kvmix.Table, Key: kvmix.Key(choose(r))}
					if i >= cfg.Reads {
						ops[i].Type, ops[i].Val = server.OpPut, val
					}
				}
				_, err := c.Do(iso, false, ops)
				return err
			}
		},
	}
}

func remoteSmallbank(cfg smallbank.Config) Row {
	return Row{
		Name:  "remote-smallbank",
		Title: "SmallBank over the wire, interactive: Begin, each point read and write a round trip, Commit",
		Note:  "needs -server; workers are -connections; the conversational shape prices per-statement latency",
		Isos:  ssiOnly,
		RemoteLoad: func(c *server.Client) error {
			return interactive(c, ssidb.SnapshotIsolation, func(tx *server.RemoteTxn) error {
				return smallbank.LoadRows(tx, cfg, 0, cfg.Accounts)
			})
		},
		RemoteTxn: func(c *server.Client, iso ssidb.Isolation) harness.TxnFunc {
			return func(r *rand.Rand) error {
				return interactive(c, iso, func(tx *server.RemoteTxn) error { return smallbank.RandomOp(tx, r, cfg) })
			}
		},
	}
}
