// Package smallbank implements the SmallBank benchmark (Alomari et al.
// 2008) as adapted for a key/value engine in thesis §5.1: three tables —
// account (name → customer id), saving and checking (customer id → balance)
// — and five transaction programs (Balance, DepositChecking, TransactSaving,
// Amalgamate, WriteCheck) chosen uniformly at random.
//
// The static analysis of §2.8.4 shows WriteCheck is a pivot: the dangerous
// cycle Bal ~> WC ~> TS makes SmallBank non-serializable under plain SI,
// which is exactly why the paper uses it to price serializability.
package smallbank

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"ssi/internal/harness"
	"ssi/ssidb"
)

// Table names.
const (
	TableAccount  = "account"
	TableSaving   = "saving"
	TableChecking = "checking"
)

// Config sizes the benchmark.
type Config struct {
	// Accounts is the number of customers. The paper's high-contention
	// setup sizes the saving/checking trees at roughly 100 leaf pages
	// (§6.1.2); the low-contention setup uses 10× the data (§6.1.5).
	Accounts int
	// OpsPerTxn batches several SmallBank operations into one transaction
	// (1 normally; 10 in the "more complex transactions" workload §6.1.4).
	OpsPerTxn int
	// InitialBalance for both accounts of every customer, in cents.
	InitialBalance int64
}

// DefaultConfig mirrors the paper's high-contention setup.
func DefaultConfig() Config {
	return Config{Accounts: 1000, OpsPerTxn: 1, InitialBalance: 1_000_000}
}

// Tx is the transaction surface the five SmallBank programs need — point
// reads and writes. *ssidb.Txn (embedded use), a registered program's
// *programs.Txn and the network client's interactive transaction
// (ssi/internal/server.RemoteTxn) satisfy it, so the same program bodies
// drive the engine in-process, through the program layer and over the wire.
type Tx interface {
	Get(table string, key []byte) ([]byte, bool, error)
	Put(table string, key, val []byte) error
}

func i64(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

func geti64(b []byte) int64 { return int64(binary.BigEndian.Uint64(b)) }

func u32(v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return b[:]
}

// Name returns the account-name key of customer i.
func Name(i int) []byte { return []byte(fmt.Sprintf("acct%08d", i)) }

// LoadRows writes the rows of customers lo..hi-1 inside tx — the unit Load
// commits per transaction, exported so a driver loading through another Tx
// implementation (ssibench's remote rows) writes exactly the same rows.
func LoadRows(tx Tx, cfg Config, lo, hi int) error {
	for i := lo; i < min(hi, cfg.Accounts); i++ {
		id := u32(uint32(i))
		if err := tx.Put(TableAccount, Name(i), id); err != nil {
			return err
		}
		if err := tx.Put(TableSaving, id, i64(cfg.InitialBalance)); err != nil {
			return err
		}
		if err := tx.Put(TableChecking, id, i64(cfg.InitialBalance)); err != nil {
			return err
		}
	}
	return nil
}

// Load populates the three tables. Their page capacity is the database's
// Options.PageMaxKeys, which page-granularity experiments set for a specific
// leaf count.
func Load(db *ssidb.DB, cfg Config) error {
	const batch = 500
	for lo := 0; lo < cfg.Accounts; lo += batch {
		err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
			return LoadRows(tx, cfg, lo, lo+batch)
		})
		if err != nil {
			return fmt.Errorf("smallbank load: %w", err)
		}
	}
	return nil
}

// lookup resolves a customer name to the id key (every SmallBank program
// starts with this read).
func lookup(tx Tx, n int) ([]byte, error) {
	id, ok, err := tx.Get(TableAccount, Name(n))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("smallbank: unknown account %d", n)
	}
	return id, nil
}

func readBal(tx Tx, table string, id []byte) (int64, error) {
	v, ok, err := tx.Get(table, id)
	if err != nil || !ok {
		return 0, err
	}
	return geti64(v), err
}

// Balance computes the customer's total balance (read-only).
func Balance(tx Tx, n int) (int64, error) {
	id, err := lookup(tx, n)
	if err != nil {
		return 0, err
	}
	s, err := readBal(tx, TableSaving, id)
	if err != nil {
		return 0, err
	}
	c, err := readBal(tx, TableChecking, id)
	if err != nil {
		return 0, err
	}
	return s + c, nil
}

// DepositChecking adds v to the checking balance.
func DepositChecking(tx Tx, n int, v int64) error {
	id, err := lookup(tx, n)
	if err != nil {
		return err
	}
	c, err := readBal(tx, TableChecking, id)
	if err != nil {
		return err
	}
	return tx.Put(TableChecking, id, i64(c+v))
}

// TransactSaving adds v (possibly negative) to the savings balance.
func TransactSaving(tx Tx, n int, v int64) error {
	id, err := lookup(tx, n)
	if err != nil {
		return err
	}
	s, err := readBal(tx, TableSaving, id)
	if err != nil {
		return err
	}
	if s+v < 0 {
		return harness.ErrRollback
	}
	return tx.Put(TableSaving, id, i64(s+v))
}

// Amalgamate moves all funds of n1 into n2's checking account.
func Amalgamate(tx Tx, n1, n2 int) error {
	id1, err := lookup(tx, n1)
	if err != nil {
		return err
	}
	id2, err := lookup(tx, n2)
	if err != nil {
		return err
	}
	s1, err := readBal(tx, TableSaving, id1)
	if err != nil {
		return err
	}
	c1, err := readBal(tx, TableChecking, id1)
	if err != nil {
		return err
	}
	c2, err := readBal(tx, TableChecking, id2)
	if err != nil {
		return err
	}
	if err := tx.Put(TableChecking, id2, i64(c2+s1+c1)); err != nil {
		return err
	}
	if err := tx.Put(TableSaving, id1, i64(0)); err != nil {
		return err
	}
	return tx.Put(TableChecking, id1, i64(0))
}

// WriteCheck cashes a check: if the combined balance cannot cover it, the
// checking account is overdrawn with a $1 penalty. This is the pivot
// transaction of the SmallBank dangerous structure.
func WriteCheck(tx Tx, n int, v int64) error {
	id, err := lookup(tx, n)
	if err != nil {
		return err
	}
	s, err := readBal(tx, TableSaving, id)
	if err != nil {
		return err
	}
	c, err := readBal(tx, TableChecking, id)
	if err != nil {
		return err
	}
	if s+c < v {
		return tx.Put(TableChecking, id, i64(c-v-100))
	}
	return tx.Put(TableChecking, id, i64(c-v))
}

// RandomOp runs one uniformly chosen SmallBank operation inside tx —
// exported so external drivers (ssibench's remote-smallbank row) run the same
// mix through any Tx implementation.
func RandomOp(tx Tx, r *rand.Rand, cfg Config) error {
	return oneOp(tx, r, cfg)
}

// oneOp runs one uniformly chosen SmallBank operation inside tx.
func oneOp(tx Tx, r *rand.Rand, cfg Config) error {
	n := r.Intn(cfg.Accounts)
	amount := int64(r.Intn(10_000) + 1)
	switch r.Intn(5) {
	case 0:
		_, err := Balance(tx, n)
		return err
	case 1:
		return DepositChecking(tx, n, amount)
	case 2:
		if r.Intn(2) == 0 {
			amount = -amount
		}
		return TransactSaving(tx, n, amount)
	case 3:
		n2 := r.Intn(cfg.Accounts)
		for n2 == n {
			n2 = r.Intn(cfg.Accounts)
		}
		return Amalgamate(tx, n, n2)
	default:
		return WriteCheck(tx, n, amount)
	}
}

// Worker returns a harness transaction function running cfg.OpsPerTxn
// operations per transaction at the given isolation level.
func Worker(db *ssidb.DB, iso ssidb.Isolation, cfg Config) harness.TxnFunc {
	ops := cfg.OpsPerTxn
	if ops <= 0 {
		ops = 1
	}
	return func(r *rand.Rand) error {
		return db.Run(iso, func(tx *ssidb.Txn) error {
			for i := 0; i < ops; i++ {
				if err := oneOp(tx, r, cfg); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// TotalMoney sums every balance; with a mix restricted to money-conserving
// operations it is an invariant used by the integration tests.
func TotalMoney(db *ssidb.DB, cfg Config) (int64, error) {
	var total int64
	err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		total = 0
		for _, table := range []string{TableSaving, TableChecking} {
			if err := tx.Scan(table, nil, nil, func(k, v []byte) bool {
				total += geti64(v)
				return true
			}); err != nil {
				return err
			}
		}
		return nil
	})
	return total, err
}
