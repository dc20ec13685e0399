// Command sdganalyze prints the static dependency graph analysis of thesis
// Chapter 2 for the built-in benchmark program sets: the conflict edges
// (vulnerable rw-antidependencies dashed, as the thesis draws them), the
// dangerous structures, and the pivot transactions that make the
// application non-serializable under plain snapshot isolation.
//
// Usage:
//
//	sdganalyze smallbank     # Figure 2.9: pivot = WriteCheck
//	sdganalyze tpcc          # Figure 2.8: serializable under SI
//	sdganalyze tpccpp        # Figure 5.3: pivots = NEWO, CCHECK
//	sdganalyze smallbank -fix PromoteBW   # apply a §2.8.5 remedy
//	sdganalyze -json tpccpp  # machine-readable verdict (CI gates on this)
//	sdganalyze -dot smallbank | dot -Tsvg  # Graphviz; vulnerable edges dashed
//
// The JSON verdict includes auto_remedies: the Promote sequence the
// registered-program layer's AutoRemedy option (programs.ProgramOptions)
// would apply to make the set robust, empty when the set is robust as
// declared or promotion alone cannot fix it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"ssi/internal/sdg"
)

func main() {
	fix := flag.String("fix", "", "apply a SmallBank remedy: MaterializeWT, PromoteWT, MaterializeBW or PromoteBW")
	jsonOut := flag.Bool("json", false, "emit the analysis as JSON")
	dotOut := flag.Bool("dot", false, "emit the graph in Graphviz DOT form (vulnerable edges dashed, pivots doubled)")
	flag.Parse()
	if flag.NArg() != 1 || (*jsonOut && *dotOut) {
		fmt.Fprintln(os.Stderr, "usage: sdganalyze [-fix option] [-json|-dot] smallbank|tpcc|tpccpp")
		os.Exit(2)
	}

	g, err := buildGraph(flag.Arg(0), *fix)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdganalyze: %v\n", err)
		os.Exit(2)
	}

	switch {
	case *jsonOut:
		err = writeJSON(os.Stdout, flag.Arg(0), *fix, g)
	case *dotOut:
		err = writeDOT(os.Stdout, flag.Arg(0), g)
	default:
		err = writeText(os.Stdout, *fix, g)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdganalyze: %v\n", err)
		os.Exit(1)
	}
}

// buildGraph resolves the named program set and applies the optional remedy.
func buildGraph(set, fix string) (*sdg.Graph, error) {
	var g *sdg.Graph
	switch set {
	case "smallbank":
		g = sdg.New(sdg.SmallBank()...)
	case "tpcc":
		g = sdg.New(sdg.TPCC()...)
	case "tpccpp":
		g = sdg.New(sdg.TPCCPP()...)
	default:
		return nil, fmt.Errorf("unknown program set %q", set)
	}
	if fix != "" {
		if set != "smallbank" {
			return nil, fmt.Errorf("-fix applies to smallbank")
		}
		switch fix {
		case "MaterializeWT":
			g = sdg.Materialize(g, "WC", "TS")
		case "PromoteWT":
			g = sdg.Promote(g, "WC", "TS")
		case "MaterializeBW":
			g = sdg.Materialize(g, "Bal", "WC")
		case "PromoteBW":
			g = sdg.Promote(g, "Bal", "WC")
		default:
			return nil, fmt.Errorf("unknown fix %q", fix)
		}
	}
	return g, nil
}

// jsonReport is the -json document: the full edge list plus the verdict the
// CI robustness gate asserts on.
type jsonReport struct {
	Set          string          `json:"set"`
	Fix          string          `json:"fix,omitempty"`
	Serializable bool            `json:"serializable"`
	Programs     []string        `json:"programs"`
	Edges        []jsonEdge      `json:"edges"`
	Dangerous    []jsonDangerous `json:"dangerous"`
	Pivots       []string        `json:"pivots"`
	AutoRemedies []jsonRemedy    `json:"auto_remedies"`
}

type jsonEdge struct {
	From       string `json:"from"`
	To         string `json:"to"`
	WW         bool   `json:"ww,omitempty"`
	WR         bool   `json:"wr,omitempty"`
	RW         bool   `json:"rw,omitempty"`
	Vulnerable bool   `json:"vulnerable,omitempty"`
}

type jsonDangerous struct {
	In    string `json:"in"`
	Pivot string `json:"pivot"`
	Out   string `json:"out"`
}

type jsonRemedy struct {
	From string `json:"from"`
	To   string `json:"to"`
}

func writeJSON(w io.Writer, set, fix string, g *sdg.Graph) error {
	rep := jsonReport{
		Set:          set,
		Fix:          fix,
		Serializable: g.Serializable(),
		Programs:     []string{},
		Edges:        []jsonEdge{},
		Dangerous:    []jsonDangerous{},
		Pivots:       g.Pivots(),
		AutoRemedies: []jsonRemedy{},
	}
	if rep.Pivots == nil {
		rep.Pivots = []string{}
	}
	for _, p := range g.Programs {
		rep.Programs = append(rep.Programs, p.Name)
	}
	for _, e := range g.Edges() {
		rep.Edges = append(rep.Edges, jsonEdge{
			From: e.From, To: e.To,
			WW: e.WW, WR: e.WR, RW: e.RW, Vulnerable: e.Vulnerable,
		})
	}
	for _, d := range g.DangerousStructures() {
		rep.Dangerous = append(rep.Dangerous, jsonDangerous{In: d.In, Pivot: d.Pivot, Out: d.Out})
	}
	if remedied, remedies := sdg.AutoPromote(g); remedied.Serializable() {
		for _, r := range remedies {
			rep.AutoRemedies = append(rep.AutoRemedies, jsonRemedy{From: r.From, To: r.To})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// writeDOT draws the graph the way the thesis does: solid conflict edges,
// vulnerable rw-antidependencies dashed, pivots double-circled.
func writeDOT(w io.Writer, set string, g *sdg.Graph) error {
	pivot := map[string]bool{}
	for _, p := range g.Pivots() {
		pivot[p] = true
	}
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=LR;\n  node [shape=circle];\n", set); err != nil {
		return err
	}
	for _, p := range g.Programs {
		attr := ""
		if pivot[p.Name] {
			attr = " [peripheries=2]"
		}
		if _, err := fmt.Fprintf(w, "  %q%s;\n", p.Name, attr); err != nil {
			return err
		}
	}
	for _, e := range g.Edges() {
		label := ""
		for _, c := range []struct {
			on   bool
			name string
		}{{e.WW, "ww"}, {e.WR, "wr"}, {e.RW, "rw"}} {
			if c.on {
				if label != "" {
					label += ","
				}
				label += c.name
			}
		}
		style := "solid"
		if e.Vulnerable {
			style = "dashed"
		}
		if _, err := fmt.Fprintf(w, "  %q -> %q [style=%s,label=%q];\n", e.From, e.To, style, label); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

func writeText(w io.Writer, fix string, g *sdg.Graph) error {
	if fix != "" {
		fmt.Fprintf(w, "after %s:\n\n", fix)
	}
	fmt.Fprintln(w, "Static dependency graph (~> marks vulnerable rw-antidependencies):")
	fmt.Fprintln(w)
	fmt.Fprint(w, g)
	fmt.Fprintln(w)

	ds := g.DangerousStructures()
	if len(ds) == 0 {
		fmt.Fprintln(w, "No dangerous structures: every execution under snapshot isolation is serializable (Theorem 3).")
		return nil
	}
	fmt.Fprintf(w, "%d dangerous structure(s):\n", len(ds))
	for _, d := range ds {
		fmt.Fprintf(w, "  %s ~> %s ~> %s (cycle closes back to %s)\n", d.In, d.Pivot, d.Out, d.In)
	}
	_, err := fmt.Fprintf(w, "pivots: %v — run these at S2PL, or break an edge by materialization/promotion (§2.6)\n", g.Pivots())
	return err
}
