package tpcc

import (
	"math/rand"

	"ssi/internal/harness"
	"ssi/internal/sdg"
	"ssi/ssidb"
)

// Registry glue: the runtime TPC-C program set declared for the engine's
// robustness subsystem.
//
// This is the Fekete Figure 2.8 analysis extended to everything this
// package's transactions actually touch: the two Delivery cases are merged
// into one program (DLVY2's footprint dominates DLVY1's), and the index
// tables this implementation adds — the customer-name index (CustNameSet) and
// the per-customer order index (OrderCustSet) — appear as set items, exactly
// the way Fekete et al. model predicate reads. The conclusion survives the
// extension: the set is robust (no dangerous structure), because every
// read-write program's rw edge into a writer is forced into a ww conflict
// under unification (NEWO and DLVY serialize on the district/order rows they
// both write, PAY on the balance rows), and the only vulnerable edges leave
// the read-only queries OSTAT and SLEV, which can never be pivots. So plain
// TPC-C runs at plain SI — the thesis's point that SSI's overhead is pure
// waste here, which ssibench -run tpcc,tpcc-programs prices. (sdg.TPCC stays
// the thesis-faithful Figure 2.8 set; this one is the engine-facing superset.)
//
// TPC-C++ (CreditCheck) is deliberately absent: adding CCHECK makes NEWO and
// CCHECK pivots (Figure 5.3) and the set would run at SSI — or under
// AutoRemedy with NEWO's credit read promoted. Use sdg.TPCCPP for that
// analysis; the bench's robust scenario is plain TPC-C.

// Program names of the runtime set.
const (
	ProgNewOrder    = "NEWO"
	ProgPayment     = "PAY"
	ProgOrderStatus = "OSTAT"
	ProgDelivery    = "DLVY"
	ProgStockLevel  = "SLEV"
)

// Programs returns the runtime TPC-C program set: the five transactions of
// this package (without CreditCheck), with their full table footprints.
func Programs() []*sdg.Program {
	return []*sdg.Program{
		{
			Name: ProgNewOrder,
			Reads: []sdg.Item{
				sdg.I("DistrictNext", "w", "d"),
				sdg.I("CustomerInfo", "w", "d", "c"),
				sdg.I("CustomerCredit", "w", "d", "c"),
				sdg.I("Item", "i"),
				sdg.I("StockQty", "w", "i"),
			},
			Writes: []sdg.Item{
				sdg.I("DistrictNext", "w", "d"),
				sdg.I("StockQty", "w", "i"),
				sdg.I("OrderSet", "w", "d"),
				sdg.I("NewOrderSet", "w", "d"),
				sdg.I("OrderLineSet", "w", "d"),
				sdg.I("OrderCustSet", "w", "d"),
			},
		},
		{
			Name: ProgPayment,
			Reads: []sdg.Item{
				sdg.I("WarehouseYTD", "w"),
				sdg.I("DistrictYTD", "w", "d"),
				sdg.I("CustNameSet", "w", "d"),
				sdg.I("CustomerBal", "w", "d", "c"),
			},
			Writes: []sdg.Item{
				sdg.I("WarehouseYTD", "w"),
				sdg.I("DistrictYTD", "w", "d"),
				sdg.I("CustomerBal", "w", "d", "c"),
			},
		},
		{
			Name: ProgOrderStatus,
			Reads: []sdg.Item{
				sdg.I("CustNameSet", "w", "d"),
				sdg.I("CustomerBal", "w", "d", "c"),
				sdg.I("OrderCustSet", "w", "d"),
				sdg.I("OrderSet", "w", "d"),
				sdg.I("OrderLineSet", "w", "d"),
			},
		},
		{
			Name: ProgDelivery,
			Reads: []sdg.Item{
				sdg.I("NewOrderSet", "w", "d"),
				sdg.I("OrderSet", "w", "d"),
				sdg.I("OrderLineSet", "w", "d"),
				sdg.I("CustomerBal", "w", "d", "c"),
			},
			Writes: []sdg.Item{
				sdg.I("NewOrderSet", "w", "d"),
				sdg.I("OrderSet", "w", "d"),
				sdg.I("OrderLineSet", "w", "d"),
				sdg.I("CustomerBal", "w", "d", "c"),
			},
		},
		{
			Name: ProgStockLevel,
			Reads: []sdg.Item{
				sdg.I("DistrictNext", "w", "d"),
				sdg.I("OrderLineSet", "w", "d"),
				sdg.I("StockQty", "w", "i"),
			},
		},
	}
}

// ClassTables maps the item classes of Programs to this package's tables.
// District holds both its next-order-id and YTD fields, so two classes map
// to it; the rest are one-to-one.
func ClassTables() map[string]string {
	return map[string]string{
		"DistrictNext":   TDistrict,
		"DistrictYTD":    TDistrict,
		"WarehouseYTD":   TWarehouse,
		"CustomerInfo":   TCustomer,
		"CustomerCredit": TCustCredit,
		"CustomerBal":    TCustBal,
		"CustNameSet":    TCustName,
		"Item":           TItem,
		"StockQty":       TStock,
		"OrderSet":       TOrder,
		"OrderCustSet":   TOrderCust,
		"NewOrderSet":    TNewOrder,
		"OrderLineSet":   TOrderLine,
	}
}

// Register declares the runtime TPC-C programs on db. The set is robust, so
// no remedy is needed and RunProgram executes at plain SI.
func Register(db *ssidb.DB) (*ssidb.ProgramReport, error) {
	return db.RegisterPrograms(Programs(), ssidb.ProgramOptions{
		ClassTables: ClassTables(),
	})
}

// ProgramWorker returns a harness transaction function running the standard
// TPC-C mix (no CreditCheck; its 4% share folds into New Order: 45% New
// Order, 43% Payment, 4% each of Delivery, Order Status, Stock Level)
// through db.RunProgram, so each transaction executes at the level the
// robustness analysis chose. Register must have been called.
func ProgramWorker(db *ssidb.DB, cfg Config) harness.TxnFunc {
	return func(r *rand.Rand) error {
		w := uint32(1 + r.Intn(cfg.Warehouses))
		run := func(name string, body func(*ssidb.Txn) error) error {
			return db.RunProgram(name, body)
		}
		switch x := r.Intn(100); {
		case x < 45:
			return run(ProgNewOrder, func(tx *ssidb.Txn) error { return NewOrder(tx, cfg, r, w) })
		case x < 88:
			return run(ProgPayment, func(tx *ssidb.Txn) error { return Payment(tx, cfg, r, w) })
		case x < 92:
			return run(ProgDelivery, func(tx *ssidb.Txn) error { return Delivery(tx, cfg, r, w) })
		case x < 96:
			return run(ProgOrderStatus, func(tx *ssidb.Txn) error { return OrderStatus(tx, cfg, r, w) })
		default:
			return run(ProgStockLevel, func(tx *ssidb.Txn) error { return StockLevel(tx, cfg, r, w) })
		}
	}
}
