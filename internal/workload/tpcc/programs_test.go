package tpcc

import (
	"errors"
	"math/rand"
	"testing"

	"ssi/internal/harness"
	"ssi/internal/sdg"
	"ssi/programs"
	"ssi/ssidb"
)

// The runtime program set — the Figure 2.8 analysis extended with the merged
// Delivery and this implementation's index tables — must stay robust: that is
// the proof ssibench -tpcc -programs rides to run TPC-C at plain SI.
func TestRuntimeProgramsRobust(t *testing.T) {
	g := sdg.New(Programs()...)
	if ds := g.DangerousStructures(); len(ds) != 0 {
		t.Fatalf("runtime TPC-C set has dangerous structures: %v", ds)
	}
	// The vulnerable edges must all leave the read-only queries — a
	// read-write program with a vulnerable out-edge would be one forced-ww
	// argument away from a pivot, so pin the shape the robustness rests on.
	for _, e := range g.Edges() {
		if e.Vulnerable && e.From != ProgOrderStatus && e.From != ProgStockLevel {
			t.Errorf("unexpected vulnerable edge from read-write program: %s ~> %s", e.From, e.To)
		}
	}
}

// Every class must resolve to a table, and the declarations must cover every
// table the implementation touches.
func TestClassTablesComplete(t *testing.T) {
	ct := ClassTables()
	for _, p := range Programs() {
		for _, c := range append(p.ReadClasses(), p.WriteClasses()...) {
			if _, ok := ct[c]; !ok {
				t.Errorf("program %s: class %q unmapped", p.Name, c)
			}
		}
	}
	covered := map[string]bool{}
	for _, tb := range ct {
		covered[tb] = true
	}
	for _, tb := range []string{TWarehouse, TDistrict, TCustomer, TCustBal, TCustCredit,
		TCustName, TOrder, TOrderCust, TNewOrder, TOrderLine, TItem, TStock} {
		if !covered[tb] {
			t.Errorf("table %q not covered by any class mapping", tb)
		}
	}
}

// End-to-end: register, run the program mix, and verify every transaction ran
// at plain SI with zero footprint violations — the declared footprints match
// what the transactions actually do.
func TestProgramWorkerRunsAtSI(t *testing.T) {
	db := ssidb.Open(ssidb.Options{})
	cfg := DefaultConfig()
	cfg.Tiny = true
	cfg.InitialOrders = 30
	if err := Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	pdb := programs.New(db)
	rep, err := Register(pdb)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Robust || rep.Level != ssidb.SnapshotIsolation {
		t.Fatalf("report = %+v, want robust at SI", rep)
	}
	if len(rep.Remedies) != 0 {
		t.Fatalf("unexpected remedies: %v", rep.Remedies)
	}
	fn := ProgramWorker(pdb, cfg)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		if err := fn(r); err != nil && !ssidb.Retryable(err) && !errors.Is(err, harness.ErrRollback) {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	st := pdb.StatsSnapshot()
	if st.FootprintViolations != 0 {
		t.Fatalf("footprint violations: %d (declarations out of sync with implementation)", st.FootprintViolations)
	}
	if st.SDGEscalated {
		t.Fatal("database escalated during pure program workload")
	}
	if st.ProgramRuns == 0 || st.ProgramSIRuns != st.ProgramRuns {
		t.Fatalf("ProgramRuns=%d ProgramSIRuns=%d, want all runs at SI", st.ProgramRuns, st.ProgramSIRuns)
	}
	if err := CheckConsistency(pdb.Adhoc(), cfg); err != nil {
		t.Fatal(err)
	}
}
