// Command interleave reproduces the exhaustive testing of thesis §4.7
// interactively: it executes every interleaving of a chosen anomaly-prone
// transaction set at a chosen isolation level, validates each execution's
// multiversion serialization graph, and reports how many interleavings
// committed, aborted and (for SI) produced non-serializable histories.
//
// Usage:
//
//	interleave -set writeskew -iso SI
//	interleave -set writeskew -iso SSI
//	interleave -set thesis -iso SSI -detector basic   # §4.7's exact set
//	interleave -set readonly -iso SI                  # Fekete et al. 2004
//	interleave -set readonly -iso SSI -ro in          # reader declared RO
//	interleave -set phantom -iso SSI
//
// The sets are internal/interleave's table (interleave.Sets), which the
// package's tests and its false-positive census share; -set, -iso and
// -detector reject values they do not know with exit status 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ssi/internal/interleave"
	"ssi/ssidb"
)

func main() {
	var setNames []string
	for _, s := range interleave.Sets() {
		setNames = append(setNames, s.Name)
	}
	var (
		setName  = flag.String("set", "writeskew", "transaction set: "+strings.Join(setNames, ", "))
		isoName  = flag.String("iso", "SSI", "isolation level: SI, SSI or S2PL")
		detector = flag.String("detector", "precise", "SSI detector: precise (the engine's default) or basic")
		roNames  = flag.String("ro", "", "comma-separated script names to run as declared read-only transactions (e.g. -set readonly -ro in)")
	)
	flag.Parse()

	set, ok := interleave.SetByName(*setName)
	if !ok {
		fmt.Fprintf(os.Stderr, "interleave: unknown set %q\n", *setName)
		os.Exit(2)
	}
	var ro []string
	for _, name := range strings.Split(*roNames, ",") {
		if name = strings.TrimSpace(name); name != "" {
			ro = append(ro, name)
		}
	}
	scripts, err := set.WithReadOnly(ro...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "interleave: -ro: %v\n", err)
		os.Exit(2)
	}
	var iso ssidb.Isolation
	switch *isoName {
	case "SI":
		iso = ssidb.SnapshotIsolation
	case "SSI":
		iso = ssidb.SerializableSI
	case "S2PL":
		iso = ssidb.S2PL
	default:
		fmt.Fprintf(os.Stderr, "interleave: unknown isolation %q\n", *isoName)
		os.Exit(2)
	}
	var det ssidb.Detector
	switch *detector {
	case "precise":
		det = ssidb.DetectorPrecise
	case "basic":
		det = ssidb.DetectorBasic
	default:
		fmt.Fprintf(os.Stderr, "interleave: unknown detector %q\n", *detector)
		os.Exit(2)
	}

	var runs, allCommitted, withAborts, anomalies int
	interleave.Explore(interleave.NewDB(det), iso, scripts, func(o interleave.Outcome) {
		runs++
		if o.Committed() == len(scripts) {
			allCommitted++
		} else {
			withAborts++
		}
		if ok, cyc := o.History.Serializable(); !ok {
			anomalies++
			if anomalies == 1 {
				fmt.Printf("first non-serializable interleaving: %v, MVSG cycle through transactions %v\n", o, cyc)
			}
		}
	})

	fmt.Printf("set=%s isolation=%s detector=%s\n", *setName, *isoName, *detector)
	fmt.Printf("%s: %s\n", set.Name, set.Doc)
	fmt.Printf("interleavings explored:        %d\n", runs)
	fmt.Printf("all transactions committed:    %d\n", allCommitted)
	fmt.Printf("with aborted transactions:     %d\n", withAborts)
	fmt.Printf("non-serializable executions:   %d\n", anomalies)
	if iso == ssidb.SerializableSI && anomalies > 0 {
		fmt.Println("FAIL: Serializable SI permitted a non-serializable execution")
		os.Exit(1)
	}
	if iso == ssidb.SerializableSI {
		fmt.Println("OK: every execution serializable (the §4.7 result)")
	}
}
