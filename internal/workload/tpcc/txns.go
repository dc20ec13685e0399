package tpcc

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"ssi/internal/harness"
	"ssi/ssidb"
)

// prefixEnd returns the exclusive upper bound for a prefix scan.
func prefixEnd(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		end[i]++
		if end[i] != 0 {
			return end[:i+1]
		}
	}
	return nil // prefix of 0xff...: scan to table end
}

// lookupCustomer resolves the 60%/40% by-lastname/by-id customer selection
// of TPC-C §2.5.1.2 and §2.6.1.2: by-lastname scans the name index and
// picks the median match.
func lookupCustomer(tx *ssidb.Txn, cfg Config, r *rand.Rand, w, d uint32) (uint32, error) {
	if r.Intn(100) < 40 {
		return cfg.randCustomer(r), nil
	}
	last := LastName(randLastNum(r, cfg.CustomersPerDistrict()))
	prefix := append(K(w, d), last...)
	prefix = append(prefix, 0)
	var ids []uint32
	err := tx.Scan(TCustName, prefix, prefixEnd(prefix), func(k, v []byte) bool {
		ids = append(ids, binary.BigEndian.Uint32(v))
		return true
	})
	if err != nil {
		return 0, err
	}
	if len(ids) == 0 {
		// Possible with few customers per district; fall back to by-id.
		return cfg.randCustomer(r), nil
	}
	return ids[(len(ids)+1)/2-1], nil
}

// NewOrder places an order: it increments the district's next order id,
// reads the customer's info and credit status (the c_credit read that gives
// TPC-C++ its CCHECK → NEWO dependency), inserts the order, new-order and
// order-line rows and updates stock. Per TPC-C §2.4.1.4, 1% of New Orders
// roll back on an invalid item.
func NewOrder(tx *ssidb.Txn, cfg Config, r *rand.Rand, w uint32) error {
	d := uint32(1 + r.Intn(Districts))
	c := cfg.randCustomer(r)
	rollback := r.Intn(100) == 0

	db, ok, err := tx.GetForUpdate(TDistrict, K(w, d))
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("tpcc: district %d/%d missing", w, d)
	}
	district := decDistrict(db)
	o := district.NextOID
	district.NextOID++
	if err := tx.Put(TDistrict, K(w, d), district.enc()); err != nil {
		return err
	}

	if _, _, err := tx.Get(TCustomer, K(w, d, c)); err != nil {
		return err
	}
	// The customer is shown their credit status with the order (§5.3.3).
	if _, _, err := tx.Get(TCustCredit, K(w, d, c)); err != nil {
		return err
	}

	olCnt := 5 + r.Intn(11)
	order := OrderRow{C: c, OLCnt: uint8(olCnt)}
	if err := tx.Insert(TOrder, K(w, d, o), order.enc()); err != nil {
		return err
	}
	if err := tx.Insert(TNewOrder, K(w, d, o), nil); err != nil {
		return err
	}
	if err := tx.Insert(TOrderCust, orderCustKey(w, d, c, o), K(c)); err != nil {
		return err
	}

	for ol := 1; ol <= olCnt; ol++ {
		if rollback && ol == olCnt {
			// Unused item number: the transaction aborts, exercising undo.
			return harness.ErrRollback
		}
		item := cfg.randItem(r)
		iv, ok, err := tx.Get(TItem, K(item))
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("tpcc: item %d missing", item)
		}
		price := decItem(iv).Price

		sv, ok, err := tx.GetForUpdate(TStock, K(w, item))
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("tpcc: stock %d/%d missing", w, item)
		}
		stock := decStock(sv)
		qty := int32(1 + r.Intn(10))
		if stock.Qty >= qty+10 {
			stock.Qty -= qty
		} else {
			stock.Qty = stock.Qty - qty + 91
		}
		stock.YTD += int64(qty)
		stock.OrderCnt++
		if err := tx.Put(TStock, K(w, item), stock.enc()); err != nil {
			return err
		}

		line := OrderLineRow{Item: item, Qty: uint8(qty), Amount: int64(qty) * price}
		if err := tx.Insert(TOrderLine, K(w, d, o, uint32(ol)), line.enc()); err != nil {
			return err
		}
	}
	return nil
}

// Payment records a customer payment: the year-to-date hotspot updates
// (unless SkipYTD), and the customer balance decrement.
func Payment(tx *ssidb.Txn, cfg Config, r *rand.Rand, w uint32) error {
	d := uint32(1 + r.Intn(Districts))
	amount := int64(100 + r.Intn(500000))

	if !cfg.SkipYTD {
		wv, _, err := tx.GetForUpdate(TWarehouse, K(w))
		if err != nil {
			return err
		}
		wh := decWarehouse(wv)
		wh.YTD += amount
		if err := tx.Put(TWarehouse, K(w), wh.enc()); err != nil {
			return err
		}
		dv, _, err := tx.GetForUpdate(TDistrict, K(w, d))
		if err != nil {
			return err
		}
		district := decDistrict(dv)
		district.YTD += amount
		if err := tx.Put(TDistrict, K(w, d), district.enc()); err != nil {
			return err
		}
	}

	c, err := lookupCustomer(tx, cfg, r, w, d)
	if err != nil {
		return err
	}
	bv, ok, err := tx.GetForUpdate(TCustBal, K(w, d, c))
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("tpcc: customer balance %d/%d/%d missing", w, d, c)
	}
	return tx.Put(TCustBal, K(w, d, c), i64(geti64(bv)-amount))
}

// OrderStatus reports a customer's most recent order (read-only).
func OrderStatus(tx *ssidb.Txn, cfg Config, r *rand.Rand, w uint32) error {
	d := uint32(1 + r.Intn(Districts))
	c, err := lookupCustomer(tx, cfg, r, w, d)
	if err != nil {
		return err
	}
	if _, _, err := tx.Get(TCustBal, K(w, d, c)); err != nil {
		return err
	}
	// Latest order: the ordercust index stores descending order ids, so the
	// first index entry is the most recent order.
	prefix := K(w, d, c)
	var latest uint32
	found := false
	if err := tx.ScanLimit(TOrderCust, prefix, prefixEnd(prefix), 1, func(k, v []byte) bool {
		latest = ^binary.BigEndian.Uint32(k[12:16])
		found = true
		return false
	}); err != nil {
		return err
	}
	if !found {
		return nil // customer has no orders
	}
	if _, _, err := tx.Get(TOrder, K(w, d, latest)); err != nil {
		return err
	}
	linePrefix := K(w, d, latest)
	return tx.Scan(TOrderLine, linePrefix, prefixEnd(linePrefix), func(k, v []byte) bool {
		return true
	})
}

// Delivery delivers the oldest undelivered order in each district: remove
// its new-order row, stamp the carrier, mark the lines delivered and credit
// the customer's balance. Districts without pending orders are skipped (the
// DLVY1 case of the static analysis).
func Delivery(tx *ssidb.Txn, cfg Config, r *rand.Rand, w uint32) error {
	carrier := uint8(1 + r.Intn(10))
	for d := uint32(1); d <= Districts; d++ {
		prefix := K(w, d)
		var oldest uint32
		found := false
		// Minimum undelivered order id: a limit-1 scan whose next-key
		// protection covers exactly the prefix up to the hit.
		if err := tx.ScanLimit(TNewOrder, prefix, prefixEnd(prefix), 1, func(k, v []byte) bool {
			oldest = binary.BigEndian.Uint32(k[8:12])
			found = true
			return false
		}); err != nil {
			return err
		}
		if !found {
			continue
		}
		if err := tx.Delete(TNewOrder, K(w, d, oldest)); err != nil {
			return err
		}
		ov, ok, err := tx.GetForUpdate(TOrder, K(w, d, oldest))
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("tpcc: order %d/%d/%d missing", w, d, oldest)
		}
		order := decOrder(ov)
		order.Carrier = carrier
		if err := tx.Put(TOrder, K(w, d, oldest), order.enc()); err != nil {
			return err
		}

		linePrefix := K(w, d, oldest)
		var total int64
		type upd struct {
			key  []byte
			line OrderLineRow
		}
		var updates []upd
		if err := tx.Scan(TOrderLine, linePrefix, prefixEnd(linePrefix), func(k, v []byte) bool {
			line := decOrderLine(v)
			total += line.Amount
			line.Delivered = true
			updates = append(updates, upd{key: append([]byte(nil), k...), line: line})
			return true
		}); err != nil {
			return err
		}
		for _, u := range updates {
			if err := tx.Put(TOrderLine, u.key, u.line.enc()); err != nil {
				return err
			}
		}

		bv, ok, err := tx.GetForUpdate(TCustBal, K(w, d, order.C))
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("tpcc: customer balance %d/%d/%d missing", w, d, order.C)
		}
		if err := tx.Put(TCustBal, K(w, d, order.C), i64(geti64(bv)+total)); err != nil {
			return err
		}
	}
	return nil
}

// StockLevel counts recently ordered items with low stock (read-only): the
// order lines of the district's last 20 orders joined with stock quantities.
func StockLevel(tx *ssidb.Txn, cfg Config, r *rand.Rand, w uint32) error {
	d := uint32(1 + r.Intn(Districts))
	threshold := int32(10 + r.Intn(11))

	dv, ok, err := tx.Get(TDistrict, K(w, d))
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("tpcc: district %d/%d missing", w, d)
	}
	next := decDistrict(dv).NextOID
	lo := uint32(1)
	if next > 20 {
		lo = next - 20
	}
	items := map[uint32]bool{}
	if err := tx.Scan(TOrderLine, K(w, d, lo), K(w, d, next), func(k, v []byte) bool {
		items[decOrderLine(v).Item] = true
		return true
	}); err != nil {
		return err
	}
	low := 0
	for item := range items {
		sv, ok, err := tx.Get(TStock, K(w, item))
		if err != nil {
			return err
		}
		if ok && decStock(sv).Qty < threshold {
			low++
		}
	}
	_ = low
	return nil
}

// CreditCheck is the TPC-C++ transaction (thesis §5.3.2, Figure 5.1): the
// customer's delivered balance plus the total of their undelivered orders is
// compared against the credit limit, and c_credit is set to good/bad. Under
// plain SI this transaction and New Order form write skew (Example 5).
func CreditCheck(tx *ssidb.Txn, cfg Config, r *rand.Rand, w uint32) error {
	d := uint32(1 + r.Intn(Districts))
	c := cfg.randCustomer(r)

	cv, ok, err := tx.Get(TCustomer, K(w, d, c))
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("tpcc: customer %d/%d/%d missing", w, d, c)
	}
	limit := decCustomer(cv).CreditLim
	bv, _, err := tx.Get(TCustBal, K(w, d, c))
	if err != nil {
		return err
	}
	balance := geti64(bv)

	// Sum the order lines of the customer's undelivered orders: the
	// NewOrder predicate read that conflicts with New Order's inserts.
	prefix := K(w, d)
	var pending []uint32
	if err := tx.Scan(TNewOrder, prefix, prefixEnd(prefix), func(k, v []byte) bool {
		pending = append(pending, binary.BigEndian.Uint32(k[8:12]))
		return true
	}); err != nil {
		return err
	}
	var newOrderTotal int64
	for _, o := range pending {
		ov, ok, err := tx.Get(TOrder, K(w, d, o))
		if err != nil {
			return err
		}
		if !ok || decOrder(ov).C != c {
			continue
		}
		linePrefix := K(w, d, o)
		if err := tx.Scan(TOrderLine, linePrefix, prefixEnd(linePrefix), func(k, v []byte) bool {
			newOrderTotal += decOrderLine(v).Amount
			return true
		}); err != nil {
			return err
		}
	}

	credit := []byte("GC")
	if balance+newOrderTotal > limit {
		credit = []byte("BC")
	}
	return tx.Put(TCustCredit, K(w, d, c), credit)
}

// Worker returns the TPC-C++ mix of §5.3.4 (41% New Order, 41% Payment, 4%
// each of Credit Check, Delivery, Order Status, Stock Level), or the Stock
// Level mix of §5.3.5 (10 Stock Level : 1 New Order).
func Worker(db *ssidb.DB, iso ssidb.Isolation, cfg Config) harness.TxnFunc {
	return func(r *rand.Rand) error {
		w := uint32(1 + r.Intn(cfg.Warehouses))
		return db.Run(iso, func(tx *ssidb.Txn) error {
			if cfg.StockLevelMix {
				if r.Intn(11) < 10 {
					return StockLevel(tx, cfg, r, w)
				}
				return NewOrder(tx, cfg, r, w)
			}
			switch x := r.Intn(100); {
			case x < 41:
				return NewOrder(tx, cfg, r, w)
			case x < 82:
				return Payment(tx, cfg, r, w)
			case x < 86:
				return CreditCheck(tx, cfg, r, w)
			case x < 90:
				return Delivery(tx, cfg, r, w)
			case x < 94:
				return OrderStatus(tx, cfg, r, w)
			default:
				return StockLevel(tx, cfg, r, w)
			}
		})
	}
}

// CheckConsistency verifies the TPC-C consistency conditions that hold at
// every isolation level in this mix (per TPC-C §3.3.2):
//
//  1. each district's next order id is one above its highest order,
//  2. every order's line count matches its order-line rows,
//  3. undelivered (new-order) rows reference existing orders,
//  4. unless SkipYTD, each warehouse's YTD equals the sum of its districts'.
//
// It runs in one snapshot transaction and returns the first violation.
func CheckConsistency(db *ssidb.DB, cfg Config) error {
	return db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		for w := uint32(1); w <= uint32(cfg.Warehouses); w++ {
			var districtYTD int64
			for d := uint32(1); d <= Districts; d++ {
				dv, ok, err := tx.Get(TDistrict, K(w, d))
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("district %d/%d missing", w, d)
				}
				district := decDistrict(dv)
				districtYTD += district.YTD

				// Condition 1: max(order id) == NextOID-1.
				var maxOrder uint32
				prefix := K(w, d)
				if err := tx.Scan(TOrder, prefix, prefixEnd(prefix), func(k, v []byte) bool {
					maxOrder = binary.BigEndian.Uint32(k[8:12])
					return true
				}); err != nil {
					return err
				}
				if maxOrder != district.NextOID-1 {
					return fmt.Errorf("district %d/%d: next oid %d but max order %d",
						w, d, district.NextOID, maxOrder)
				}

				// Conditions 2 and 3.
				if err := tx.Scan(TNewOrder, prefix, prefixEnd(prefix), func(k, v []byte) bool {
					return true
				}); err != nil {
					return err
				}
				// Sample a handful of orders for line-count consistency.
				for _, o := range []uint32{1, maxOrder / 2, maxOrder} {
					if o == 0 {
						continue
					}
					ov, ok, err := tx.Get(TOrder, K(w, d, o))
					if err != nil {
						return err
					}
					if !ok {
						return fmt.Errorf("order %d/%d/%d missing", w, d, o)
					}
					want := int(decOrder(ov).OLCnt)
					got := 0
					linePrefix := K(w, d, o)
					if err := tx.Scan(TOrderLine, linePrefix, prefixEnd(linePrefix), func(k, v []byte) bool {
						got++
						return true
					}); err != nil {
						return err
					}
					if got != want {
						return fmt.Errorf("order %d/%d/%d: %d lines, header says %d", w, d, o, got, want)
					}
				}
			}
			if !cfg.SkipYTD {
				wv, ok, err := tx.Get(TWarehouse, K(w))
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("warehouse %d missing", w)
				}
				if wYTD := decWarehouse(wv).YTD; wYTD != districtYTD {
					return fmt.Errorf("warehouse %d: ytd %d != district sum %d", w, wYTD, districtYTD)
				}
			}
		}
		return nil
	})
}
