// Command datagen emits the skewed TPC-H tables used by the
// evaluation as tab-separated text, reproducing the Chaudhuri–
// Narasayya skewed generator's role in the paper (§5).
//
// Usage:
//
//	datagen -table lineitem -sf 0.01 -zipf Z2 [-seed 42]
//
// Tables: region, nation, supplier, customer, part, orders, lineitem.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/tpch"
)

func main() {
	table := flag.String("table", "lineitem", "table to generate")
	sf := flag.Float64("sf", 0.01, "scale factor (1.0 = TPC-H SF1 row counts)")
	zipf := flag.String("zipf", "Z0", "skew setting Z0..Z4 (or a numeric exponent)")
	seed := flag.Int64("seed", 42, "generator seed")
	flag.Parse()

	z, ok := tpch.SkewName[*zipf]
	if !ok {
		if _, err := fmt.Sscanf(*zipf, "%f", &z); err != nil {
			fmt.Fprintf(os.Stderr, "datagen: bad -zipf %q\n", *zipf)
			os.Exit(2)
		}
	}
	g := tpch.NewGen(tpch.Config{SF: *sf, Zipf: z, Seed: *seed})
	w := bufio.NewWriter(os.Stdout)

	switch *table {
	case "region":
		g.Regions(func(r tpch.Region) bool {
			fmt.Fprintf(w, "%d\t%s\n", r.RegionKey, r.Name)
			return true
		})
	case "nation":
		g.Nations(func(n tpch.Nation) bool {
			fmt.Fprintf(w, "%d\t%d\t%s\n", n.NationKey, n.RegionKey, n.Name)
			return true
		})
	case "supplier":
		g.Suppliers(func(s tpch.Supplier) bool {
			fmt.Fprintf(w, "%d\t%d\t%d\n", s.SuppKey, s.NationKey, s.AcctBal)
			return true
		})
	case "orders":
		g.Orders(func(o tpch.Order) bool {
			fmt.Fprintf(w, "%d\t%d\t%s\t%d\n", o.OrderKey, o.CustKey,
				tpch.ShipPriorities[o.ShipPriority], o.TotalPrice)
			return true
		})
	case "customer":
		g.Customers(func(c tpch.Customer) bool {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\n", c.CustKey, c.NationKey, c.AcctBal,
				tpch.MktSegments[c.MktSegment])
			return true
		})
	case "part":
		g.Parts(func(pt tpch.Part) bool {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\n", pt.PartKey, pt.Size, pt.RetailPrice,
				tpch.Brands[pt.Brand])
			return true
		})
	case "lineitem":
		g.Lineitems(func(l tpch.Lineitem) bool {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%s\t%d\n", l.OrderKey, l.SuppKey,
				l.Quantity, l.ShipDate, tpch.ShipModes[l.ShipMode],
				tpch.ShipInstructs[l.ShipInstruct], l.ExtendedPrice)
			return true
		})
	default:
		fmt.Fprintf(os.Stderr, "datagen: unknown table %q\n", *table)
		os.Exit(2)
	}
	// A write to stdout that failed, a closed pipe say, sticks in w and
	// surfaces here.
	if err := w.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "datagen: write: %v\n", err)
		os.Exit(1)
	}
}
