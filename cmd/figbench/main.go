// Command figbench regenerates the paper's evaluation figures as text
// tables. Each figure of Section 5 has a driver in internal/experiments;
// figbench selects, scales and prints them.
//
// Usage:
//
//	figbench                      # all figures at laptop scale
//	figbench -fig 7               # one figure
//	figbench -fig 5,7 -scale 5000 # bigger corpus
//
// The -scale flags trade fidelity for runtime; the paper's corpus sizes
// (236,600 / 207,909 objects) are reachable but take correspondingly long.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"figfusion/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figbench: ")
	var (
		figs     = flag.String("fig", "all", "comma-separated figures (5,6,7,8,9,10,11,rank,music) or 'all'")
		scale    = flag.Int("scale", 1200, "retrieval corpus size |D_ret| (paper: 236600)")
		recScale = flag.Int("recscale", 1500, "recommendation corpus size |D_rec| (paper: 207909)")
		queries  = flag.Int("queries", 20, "evaluation queries (paper: 20)")
		users    = flag.Int("users", 30, "evaluation users (paper: 279)")
		seed     = flag.Int64("seed", 1, "seed")
		trainQ   = flag.Int("trainqueries", 20, "training queries for the lambda coordinate ascent (paper: 20)")
	)
	flag.Parse()

	opts := experiments.DefaultOptions()
	opts.Scale = *scale
	opts.RecScale = *recScale
	opts.Queries = *queries
	opts.TrainQueries = *trainQ
	opts.RecUsers = *users
	opts.Seed = *seed

	type driver struct {
		id  string
		run func() (string, error)
	}
	table := func(f func(experiments.Options) (*experiments.Table, error)) func() (string, error) {
		return func() (string, error) {
			t, err := f(opts)
			if err != nil {
				return "", err
			}
			return t.Format(), nil
		}
	}
	drivers := []driver{
		{"5", table(experiments.Figure5)},
		{"6", func() (string, error) { return experiments.Figure6(opts) }},
		{"7", table(experiments.Figure7)},
		{"8", table(experiments.Figure8)},
		{"9", table(experiments.Figure9)},
		{"10", table(experiments.Figure10)},
		{"11", table(experiments.Figure11)},
		{"rank", table(experiments.RankMetricsTable)},
		{"music", table(experiments.MusicTable)},
	}

	want := map[string]bool{}
	if *figs == "all" {
		for _, d := range drivers {
			want[d.id] = true
		}
	} else {
		for _, id := range strings.Split(*figs, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	ran := 0
	for _, d := range drivers {
		if !want[d.id] {
			continue
		}
		ran++
		start := time.Now()
		out, err := d.run()
		if err != nil {
			log.Fatalf("figure %s: %v", d.id, err)
		}
		fmt.Printf("%s\n(%.1fs)\n\n", strings.TrimRight(out, "\n"), time.Since(start).Seconds())
	}
	if ran == 0 {
		log.Fatalf("no figure matched -fig=%q (valid: 5,6,7,8,9,10,11,rank,music)", *figs)
	}
}
