package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"figfusion/internal/api"
)

// benchmarkFile mirrors BENCHMARK.json at the repo root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

// TestCatalogMatchesBenchmarkJSON pins BENCHMARK.json to the code: the
// same workloads with the same reasons, the same metric names, units,
// directions and bounds, within the contract's limits.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if bf.RunSeconds != baseSeconds {
		t.Errorf("run_seconds = %d, the op counts are defined at %d", bf.RunSeconds, baseSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, bf.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the catalog:\n json %+v\n code %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the catalog:\n json %+v\n code %+v", bf.PerLayer, perLayer)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	hasSetup, maxBound := false, 0.0
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: malformed unit %q", m.Name, m.Unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	for _, m := range endToEnd {
		if m.Name == "setup_s" && m.Bound < maxBound {
			t.Errorf("setup_s must carry the largest bound, has %v < %v", m.Bound, maxBound)
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range perLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", m.Name)
		}
	}
}

// smokeConfig shrinks a workload to 300 objects and a fiftieth of its op
// lists, so tier-1 stays fast.
func smokeConfig(t *testing.T, workload string, traced bool) runConfig {
	t.Helper()
	return runConfig{workload: workload, seed: 7, scale: 0.02, traced: traced, objects: 300, log: testLog{t}}
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// scratchEmpty asserts the run left nothing in the scratch root.
func scratchEmpty(t *testing.T, root string) {
	t.Helper()
	left, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("run left %s behind in its scratch root", e.Name())
	}
}

// TestSmoke runs every workload, plain and traced. Each run must report
// exactly its mode's catalogued metrics, fail no op, verify, and clean up.
// One standalone and the fleet workload run twice: the metrics a later
// issue may quote as counts must repeat exactly between two runs of a seed.
func TestSmoke(t *testing.T) {
	root := t.TempDir()
	t.Setenv("TMPDIR", root)
	t.Cleanup(func() { scratchEmpty(t, root) }) // after the parallel subtests
	counts := map[bool][]string{
		false: {"snapshot_mb", "p_at_10"},
		true:  {"index.cliques", "index.postings", "retrieval.candidates_per_search", "retrieval.candidates_per_ta", "fig.cliques_per_query"},
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name + "/plain"
			if traced {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				var first map[string]float64
				runs := 1
				if w.Name == "uniq-4k" || w.Fleet {
					runs = 2
				}
				for rerun := 0; rerun < runs; rerun++ {
					cfg := smokeConfig(t, w.Name, traced)
					rep, err := run(context.Background(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if rep.failed != 0 || rep.attempted == 0 {
						t.Errorf("%d of %d ops failed", rep.failed, rep.attempted)
					}
					var out bytes.Buffer
					if err := emit(&out, cfg, rep); err != nil {
						t.Fatal(err)
					}
					checkResultLine(t, out.Bytes(), catalogOf(traced))
					if !traced {
						for _, m := range endToEnd {
							if rep.metrics[m.Name] <= 0 {
								t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, rep.metrics[m.Name])
							}
						}
					}
					if first == nil {
						first = rep.metrics
						continue
					}
					for _, c := range counts[traced] {
						if first[c] != rep.metrics[c] {
							t.Errorf("%s is not deterministic: %v then %v", c, first[c], rep.metrics[c])
						}
					}
				}
				if traced {
					scatter := first["cluster.fanout_ms"] > 0 && first["shard.search_ms"] > 0 && first["topk.merge_us"] > 0
					if scatter != w.Fleet {
						t.Errorf("cluster/shard/topk layers measured = %v on a workload with Fleet = %v", scatter, w.Fleet)
					}
				}
			})
		}
	}
}

// checkResultLine parses the last line of a run's output as the contract's
// result object and checks its metric set against the catalog.
func checkResultLine(t *testing.T, out []byte, catalog []metric) {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result object must have exactly correct, attempted, failed and metrics: %s", lines[len(lines)-1])
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(catalog) {
		t.Errorf("%d metrics printed, catalog lists %d", len(metrics), len(catalog))
	}
	for _, m := range catalog {
		got, ok := metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: printed %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
		}
		if !bytes.Contains(out, []byte(m.Name+" ")) {
			t.Errorf("metric %s is not printed by name", m.Name)
		}
	}
}

// TestOpListsAreSeedDerived: one seed, one byte-identical op list; another
// seed, another list.
func TestOpListsAreSeedDerived(t *testing.T) {
	for _, w := range workloads {
		d, err := generate(300)
		if err != nil {
			t.Fatal(err)
		}
		encode := func(seed int64) []byte {
			pl, err := buildPlan(&w, d, seed, 0.02)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := pl.encode()
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}
		a, b, c := encode(3), encode(3), encode(4)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations from one seed differ", w.Name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: two seeds gave the same op list", w.Name)
		}
	}
}

// TestMixedInsertsRunOnClientZero: every insert of a mixed phase sits on
// an even index, so one client applies them all in list order.
func TestMixedInsertsRunOnClientZero(t *testing.T) {
	d, err := generate(4000)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := buildPlan(findWorkload("fleet-rw-4k"), d, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	reads, inserted := 0, 0
	for _, ph := range pl.Phases {
		if ph.Kind != mixed {
			continue
		}
		for i, o := range ph.Ops {
			if o.Kind != opInsert {
				reads++
				continue
			}
			inserted++
			if ph.clientOf(i) != 0 {
				t.Errorf("insert at op %d runs on client %d", i, ph.clientOf(i))
			}
		}
	}
	if reads != 600 || inserted < 54 || inserted > 60 {
		t.Errorf("mixed phase has %d reads and %d inserts, want 600 and one per ~10 reads", reads, inserted)
	}
}

// TestCorruptedResponseFailsVerification: one flipped score in the bodies
// the verification step reads must fail the run — with no metrics, and
// with the scratch directory still cleaned up.
func TestCorruptedResponseFailsVerification(t *testing.T) {
	root := t.TempDir()
	t.Setenv("TMPDIR", root)
	cfg := smokeConfig(t, "uniq-4k", false)
	cfg.corrupt = func(body []byte) []byte {
		// Flip the leading digit of the first score: still JSON, another value.
		key := []byte(`"score":`)
		i := bytes.Index(body, key)
		if i < 0 {
			return body
		}
		out := append([]byte(nil), body...)
		if d := &out[i+len(key)]; *d == '9' {
			*d = '8'
		} else {
			*d = '9'
		}
		return out
	}
	rep, err := run(context.Background(), cfg)
	if err == nil {
		t.Fatalf("run verified a corrupted answer: %+v", rep)
	}
	if !strings.Contains(err.Error(), "verify") {
		t.Errorf("run failed outside verification: %v", err)
	}
	scratchEmpty(t, root)
}

// TestFailureAccounting: short, partial, unordered and self-including
// answers are failures, and a drive gives up once more than 1% of its ops
// have failed.
func TestFailureAccounting(t *testing.T) {
	o := op{Kind: opTA, Query: 5}
	answer := func(n int) *api.WireSearchResponse {
		resp := &api.WireSearchResponse{}
		for i := 0; i < n; i++ {
			resp.Results = append(resp.Results, api.Item{ID: int64(100 + i), Score: 1 / float64(i+1)})
		}
		return resp
	}
	if err := checkRead(o, answer(topK)); err != nil {
		t.Errorf("good answer rejected: %v", err)
	}
	short := answer(topK - 1)
	partial := answer(topK)
	partial.Partial = true
	unordered := answer(topK)
	unordered.Results[3].Score = 99
	self := answer(topK)
	self.Results[2].ID = o.Query
	for name, resp := range map[string]*api.WireSearchResponse{"short": short, "partial": partial, "unordered": unordered, "self": self} {
		if checkRead(o, resp) == nil {
			t.Errorf("%s answer accepted", name)
		}
	}
	d := &driver{pl: &plan{Total: 200}}
	if d.fail(o, os.ErrDeadlineExceeded) || d.fail(o, os.ErrDeadlineExceeded) {
		t.Error("drive aborted at 1% failed")
	}
	if !d.fail(o, os.ErrDeadlineExceeded) {
		t.Error("drive did not abort past 1% failed")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) → [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31.0 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}, 90); p != 9 {
		t.Errorf("p90 = %v, want 9", p)
	}
}
