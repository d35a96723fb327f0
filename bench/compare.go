package main

import (
	"fmt"
	"os"
)

// Comparison of two result files by the benchmark's own bounds: one row
// per (workload, seed, end-to-end metric), over the seeds both files
// hold. Runs of different seeds are never pooled: another seed is other
// traffic, and a held-out seed's run stays held out.
//
//	better / worse   the medians differ by more than the metric's bound
//	within bound     they do not
//	unresolved       either side's run-to-run spread (interquartile
//	                 distance over median) is wider than the bound, so
//	                 the runs cannot tell a change of that size from noise

type row struct {
	workload, metric     string
	seed                 int64
	old, new             float64
	spreadOld, spreadNew float64
	worseBy              float64 // share of old's median, positive is worse
	verdict              string
}

// values collects one untraced metric of one workload and seed over a
// set's runs.
func values(set resultSet, workload string, seed int64, metric string) []float64 {
	var vs []float64
	for _, r := range set.Runs {
		if r.Workload == workload && r.Seed == seed && !r.Traced {
			if v, ok := r.Metrics[metric]; ok {
				vs = append(vs, v.Value)
			}
		}
	}
	return vs
}

// seeds lists the seeds of a set's runs in order of first appearance.
func seeds(set resultSet) []int64 {
	var out []int64
	seen := map[int64]bool{}
	for _, r := range set.Runs {
		if !seen[r.Seed] {
			seen[r.Seed] = true
			out = append(out, r.Seed)
		}
	}
	return out
}

func compareSets(old, new resultSet) []row {
	var rows []row
	for _, wl := range workloads {
		for _, seed := range seeds(old) {
			for _, d := range endToEnd {
				ov, nv := values(old, wl.name, seed, d.name), values(new, wl.name, seed, d.name)
				if len(ov) == 0 || len(nv) == 0 {
					continue
				}
				r := row{workload: wl.name, seed: seed, metric: d.name, old: median(ov), new: median(nv),
					spreadOld: spread(ov), spreadNew: spread(nv)}
				r.worseBy = ratio(r.new-r.old, r.old)
				if d.better == "higher" {
					r.worseBy = -r.worseBy
				}
				switch {
				case r.spreadOld > d.bound || r.spreadNew > d.bound:
					r.verdict = "unresolved"
				case r.worseBy > d.bound:
					r.verdict = "worse"
				case r.worseBy < -d.bound:
					r.verdict = "better"
				default:
					r.verdict = "within bound"
				}
				rows = append(rows, r)
			}
		}
	}
	return rows
}

// printRows prints the comparison and returns how many rows are not
// within bound.
func printRows(rows []row) int {
	out := 0
	fmt.Printf("%-16s %4s %-20s %14s %14s %9s %8s %8s  %s\n", "workload", "seed", "metric", "old median", "new median", "worse by", "spread", "spread", "verdict")
	for _, r := range rows {
		fmt.Printf("%-16s %4d %-20s %14.4f %14.4f %+8.2f%% %7.2f%% %7.2f%%  %s\n",
			r.workload, r.seed, r.metric, r.old, r.new, 100*r.worseBy, 100*r.spreadOld, 100*r.spreadNew, r.verdict)
		if r.verdict != "within bound" {
			out++
		}
	}
	return out
}

// compareFiles is -compare: exit status 1 if any row is worse or
// unresolved.
func compareFiles(oldPath, newPath string) int {
	old, err := readSet(oldPath)
	if err != nil {
		fatal(err)
	}
	new, err := readSet(newPath)
	if err != nil {
		fatal(err)
	}
	rows := compareSets(old, new)
	if len(rows) == 0 {
		fatal(fmt.Errorf("%s and %s have no workload and seed in common", oldPath, newPath))
	}
	printRows(rows)
	for _, r := range rows {
		if r.verdict == "worse" || r.verdict == "unresolved" {
			return 1
		}
	}
	return 0
}

// runAA is -aa: two sets of three untraced runs of this tree, compared
// like two commits. The same code must agree with itself within the
// benchmark's bounds on every row, or the harness cannot resolve a
// change of that size.
func runAA(cfg config) int {
	var sets [2]resultSet
	for i := range sets {
		set, err := runAll(cfg, 3, false)
		if err != nil {
			fatal(err)
		}
		sets[i] = set
	}
	fmt.Println()
	if n := printRows(compareSets(sets[0], sets[1])); n > 0 {
		fmt.Fprintf(os.Stderr, "bench: A/A: %d rows disagree\n", n)
		return 1
	}
	return 0
}
