package smallbank

import (
	"math/rand"

	"ssi/internal/harness"
	"ssi/internal/sdg"
	"ssi/programs"
)

// Registry glue: the declared SmallBank program set (sdg.SmallBank, the
// §2.8.4 analysis input) mapped onto this package's runtime tables, so the
// registered-program layer (ssi/programs) can prove — after AutoRemedy
// discovers PromoteBW — that the five programs are serializable at plain SI
// and enforce the declared footprints at runtime.

// Program names, as declared in sdg.SmallBank.
const (
	ProgBalance         = "Bal"
	ProgDepositChecking = "DC"
	ProgTransactSaving  = "TS"
	ProgAmalgamate      = "Amg"
	ProgWriteCheck      = "WC"
)

// Programs returns the declared SmallBank program set.
func Programs() []*sdg.Program { return sdg.SmallBank() }

// ClassTables maps the sdg item classes of Programs to this package's
// engine tables.
func ClassTables() map[string]string {
	return map[string]string{
		"Account":  TableAccount,
		"Saving":   TableSaving,
		"Checking": TableChecking,
	}
}

// Register declares the SmallBank programs on pdb. SmallBank is not robust as
// declared (WriteCheck is a pivot), so without autoRemedy the programs run at
// full SerializableSI; with autoRemedy the layer applies PromoteBW (Balance
// identity-writes the checking rows it reads) and the whole set runs at plain
// SI.
func Register(pdb *programs.DB, autoRemedy bool) (*programs.ProgramReport, error) {
	return pdb.RegisterPrograms(Programs(), programs.ProgramOptions{
		ClassTables: ClassTables(),
		AutoRemedy:  autoRemedy,
	})
}

// randomProgram picks one uniformly chosen SmallBank operation, returning its
// registered program name and body — the same mix as oneOp, factored so the
// registry-driven worker can name the program it is about to run.
func randomProgram(r *rand.Rand, cfg Config) (string, func(Tx) error) {
	n := r.Intn(cfg.Accounts)
	amount := int64(r.Intn(10_000) + 1)
	switch r.Intn(5) {
	case 0:
		return ProgBalance, func(tx Tx) error {
			_, err := Balance(tx, n)
			return err
		}
	case 1:
		return ProgDepositChecking, func(tx Tx) error { return DepositChecking(tx, n, amount) }
	case 2:
		if r.Intn(2) == 0 {
			amount = -amount
		}
		return ProgTransactSaving, func(tx Tx) error { return TransactSaving(tx, n, amount) }
	case 3:
		n2 := r.Intn(cfg.Accounts)
		for n2 == n {
			n2 = r.Intn(cfg.Accounts)
		}
		return ProgAmalgamate, func(tx Tx) error { return Amalgamate(tx, n, n2) }
	default:
		return ProgWriteCheck, func(tx Tx) error { return WriteCheck(tx, n, amount) }
	}
}

// ProgramWorker returns a harness transaction function running the standard
// SmallBank mix through pdb.RunProgram — each transaction executes one named
// registered program at the isolation level the robustness analysis chose.
// Register must have been called. (Unlike Worker it always runs one operation
// per transaction: a registered program is the unit of analysis.)
func ProgramWorker(pdb *programs.DB, cfg Config) harness.TxnFunc {
	return func(r *rand.Rand) error {
		name, body := randomProgram(r, cfg)
		return pdb.RunProgram(name, func(tx *programs.Txn) error { return body(tx) })
	}
}
