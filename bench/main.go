// Command bench is the repo's one gated benchmark: it boots the real
// serving stack in-process behind loopback listeners, drives it through
// internal/client from two closed-loop clients over seed-derived op lists
// of fixed length, checks every answer, and prints each metric by name.
// BENCHMARK.json at the repo root lists the workloads and metrics;
// README.md in this directory defines them.
//
//	go run ./bench -workload uniq-4k -seed 1            # end-to-end metrics
//	go run ./bench -workload uniq-4k -seed 1 -trace 1   # per-layer metrics
//	go run ./bench -workload hot-4k -repeat 10 -selfcheck
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := realMain(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// realMain is main without the process exit, so the tests can call it.
func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := runConfig{log: stderr}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the corpus and the op lists")
	seconds := fs.Int("seconds", baseSeconds, "length of the timed op lists, as the seconds they take on the reference host (scales every phase's op count; the lists stay fixed-length)")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1: write the spans to this file, one JSON object per line")
	repeat := fs.Int("repeat", 1, "run the workload this many times, each in its own process with seeds seed, seed+1, …, and print per-metric median and quartiles")
	selfcheck := fs.Bool("selfcheck", false, "with -repeat: split the runs into two alternating sets and report whether their medians agree within each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 || *repeat < 1 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -help")
		return 2
	}
	if findWorkload(cfg.workload) == nil {
		fmt.Fprintf(stderr, "bench: -workload must be one of %s\n", strings.Join(names, ", "))
		return 2
	}
	cfg.traced = *trace == 1
	cfg.scale = float64(*seconds) / baseSeconds
	if *repeat > 1 {
		return repeatRuns(ctx, cfg, *seconds, *repeat, *selfcheck, stdout, stderr)
	}

	rep, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := emit(stdout, cfg, rep); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	return 0
}

// catalogOf is the metric list a run of the given mode must report.
func catalogOf(traced bool) []metric {
	if traced {
		return perLayer
	}
	return endToEnd
}

// emit prints every metric of the run's mode by name with its unit, then
// the contract's result object as the last line.
func emit(stdout io.Writer, cfg runConfig, rep *report) error {
	catalog := catalogOf(cfg.traced)
	res := result{Correct: true, Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]metricValue, len(catalog))}
	fmt.Fprintf(stdout, "workload %s seed %d: %d ops attempted, %d failed, every checked answer correct\n", cfg.workload, cfg.seed, rep.attempted, rep.failed)
	for _, m := range catalog {
		v, ok := rep.metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(stdout, "%-40s %16.6g %s\n", m.Name, v, m.Unit)
	}
	if len(rep.metrics) != len(catalog) {
		return fmt.Errorf("%d metrics measured, the catalog lists %d", len(rep.metrics), len(catalog))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// repeatRuns re-executes this binary n times, one process per run as the
// driver does, and summarises each metric. With selfcheck it also applies
// the driver's acceptance rules to unchanged code: every spread but
// setup_s's within the metric's bound, and the medians of two sets of runs
// — alternating, because the host drifts over minutes — within it too.
func repeatRuns(ctx context.Context, cfg runConfig, seconds, n int, selfcheck bool, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	catalog, trace := catalogOf(cfg.traced), "0"
	if cfg.traced {
		trace = "1"
	}
	samples := make(map[string][]float64, len(catalog))
	attempted, failed := 0, 0
	for i := 0; i < n; i++ {
		cmd := exec.CommandContext(ctx, self, "-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed+int64(i), 10),
			"-seconds", strconv.Itoa(seconds), "-trace", trace)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "bench: run %d: %v\n", i, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(stderr, "bench: run %d: last line is not a result: %v\n", i, err)
			return 1
		}
		attempted += res.Attempted
		failed += res.Failed
		for name, mv := range res.Metrics {
			samples[name] = append(samples[name], mv.Value)
		}
		fmt.Fprintf(stderr, "run %d/%d done\n", i+1, n)
	}
	fmt.Fprintf(stdout, "workload %s, %d runs (seeds %d..%d): %d ops attempted, %d failed\n", cfg.workload, n, cfg.seed, cfg.seed+int64(n)-1, attempted, failed)
	fmt.Fprintf(stdout, "%-40s %4s %12s %12s %12s %8s", "metric", "n", "q1", "median", "q3", "iqr/med")
	if selfcheck {
		fmt.Fprintf(stdout, " %12s %12s %8s %6s %s", "median(even)", "median(odd)", "differ", "bound", "within bound")
	}
	fmt.Fprintln(stdout)
	code := 0
	for _, m := range catalog {
		vals := samples[m.Name]
		if len(vals) < 2 {
			continue
		}
		med := median(vals)
		q1, q3 := quartiles(vals)
		spread := ratio(q3-q1, med)
		fmt.Fprintf(stdout, "%-40s %4d %12.6g %12.6g %12.6g %7.2f%%", m.Name, len(vals), q1, med, q3, 100*spread)
		if selfcheck {
			// The driver's two acceptance rules: the spread of every metric
			// but setup_s within its bound, and two sets' medians within it.
			var even, odd []float64
			for i, v := range vals {
				if i%2 == 0 {
					even = append(even, v)
				} else {
					odd = append(odd, v)
				}
			}
			a, b := median(even), median(odd)
			differ := ratio(math.Abs(a-b), math.Min(a, b))
			verdict := ""
			if m.Bound > 0 {
				verdict = "yes"
				if differ > m.Bound {
					verdict, code = "NO (medians)", 1
				}
				if spread > m.Bound && m.Name != "setup_s" {
					verdict, code = "NO (spread)", 1
				}
			}
			fmt.Fprintf(stdout, " %12.6g %12.6g %7.2f%% %5.0f%% %s", a, b, 100*differ, 100*m.Bound, verdict)
		}
		fmt.Fprintln(stdout)
	}
	if len(samples) != len(catalog) {
		fmt.Fprintf(stderr, "bench: runs reported %d metrics, the catalog lists %d\n", len(samples), len(catalog))
		return 1
	}
	return code
}
