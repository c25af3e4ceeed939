// Command figsearch runs top-k FIG retrieval over a corpus: it loads (or
// generates) a dataset, builds the correlation model and the clique
// inverted index, and answers similarity queries for corpus objects,
// printing the matched features the way the paper's Figure 6 does.
//
// With -server it skips the local engine entirely and queries a running
// figserver (any -role) over the /v1 wire through the shared typed
// client — the quickest way to probe a live deployment from a shell.
//
// Usage:
//
//	figsearch -data corpus.gob -query 42 -k 10
//	figsearch -objects 2000 -query 7            # generate on the fly
//	figsearch -server localhost:8080 -query 42  # ask a running figserver
//	figsearch -server localhost:8080 -text "beach sunset"
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"figfusion"
	"figfusion/internal/api"
	"figfusion/internal/client"
	"figfusion/internal/dataset"
	"figfusion/internal/media"
	"figfusion/internal/retrieval"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figsearch: ")
	var (
		data    = flag.String("data", "", "corpus gob written by figdata (empty = generate)")
		objects = flag.Int("objects", 2000, "corpus size when generating")
		seed    = flag.Int64("seed", 1, "generation seed")
		query   = flag.Int("query", 0, "query object ID")
		text    = flag.String("text", "", "free-text query (overrides -query)")
		k       = flag.Int("k", 10, "results to return")
		scan    = flag.Bool("scan", false, "use the sequential scan instead of the clique index")
		server  = flag.String("server", "", "query a running figserver at this address instead of a local engine")
		timeout = flag.Duration("timeout", 10*time.Second, "request timeout in -server mode")
	)
	flag.Parse()
	if *server != "" {
		if err := remoteSearch(*server, *timeout, *query, *text, *k); err != nil {
			log.Fatal(err)
		}
		return
	}

	d, err := loadOrGenerate(*data, *objects, *seed)
	if err != nil {
		log.Fatal(err)
	}
	model := d.TrainedModel(*seed)
	engine, err := retrieval.NewEngine(model, retrieval.Config{SkipIndex: *scan, Pruning: retrieval.PruneBlockMax})
	if err != nil {
		log.Fatal(err)
	}
	var q *media.Object
	exclude := retrieval.NoExclude
	if *text != "" {
		var ok bool
		q, ok = figfusion.TextQuery(d.Corpus, *text)
		if !ok {
			log.Fatalf("no term of %q matches the corpus vocabulary", *text)
		}
		fmt.Printf("text query %q → %d matched terms\n", *text, q.Len())
	} else {
		if *query < 0 || *query >= d.Corpus.Len() {
			log.Fatalf("query %d out of range [0, %d)", *query, d.Corpus.Len())
		}
		q = d.Corpus.Object(media.ObjectID(*query))
		exclude = q.ID
		fmt.Printf("query object %d (topic %d, month %d)\n", q.ID, q.PrimaryTopic, q.Month)
		fmt.Printf("  tags: %s\n", strings.Join(names(d, q, media.Text), ", "))
		fmt.Printf("  users: %s\n", strings.Join(names(d, q, media.User), ", "))
	}

	results := engine.Search(q, *k, exclude)
	if len(results) == 0 {
		fmt.Println("no results")
		os.Exit(0)
	}
	for rank, it := range results {
		o := d.Corpus.Object(it.ID)
		marker := " "
		if dataset.Relevant(q, o) {
			marker = "*"
		}
		fmt.Printf("%s %2d. object %-6d topic %-3d score %.5f  shared: %s\n",
			marker, rank+1, o.ID, o.PrimaryTopic, it.Score, strings.Join(shared(d, q, o), ", "))
	}
	fmt.Println("(* = shares the query's planted primary topic)")
}

// remoteSearch asks a running figserver over the /v1 wire and prints the
// ranked results with whatever context the object endpoint can add.
func remoteSearch(addr string, timeout time.Duration, query int, text string, k int) error {
	c := client.New(addr)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	health, err := c.Healthz(ctx)
	if err != nil {
		return fmt.Errorf("server unreachable: %w", err)
	}
	req := &api.SearchRequest{K: k}
	if text != "" {
		req.Text = text
		fmt.Printf("text query %q against %s (%d objects)\n", text, c.Base(), health.Objects)
	} else {
		id := int64(query)
		req.ID = &id
		req.Exclude = &id
		fmt.Printf("query object %d against %s (%d objects)\n", query, c.Base(), health.Objects)
	}
	resp, err := c.Search(ctx, req)
	if err != nil {
		return err
	}
	if len(resp.Results) == 0 {
		fmt.Println("no results")
		return nil
	}
	if resp.Partial {
		fmt.Println("(partial: some cluster nodes did not answer)")
	}
	for rank, it := range resp.Results {
		line := fmt.Sprintf("%2d. object %-6d score %.5f", rank+1, it.ID, it.Score)
		if o, oerr := c.Object(ctx, it.ID); oerr == nil {
			tags := o.Tags
			if len(tags) > 6 {
				tags = tags[:6]
			}
			line += "  tags: " + strings.Join(tags, ", ")
		}
		fmt.Println(line)
	}
	return nil
}

func loadOrGenerate(path string, objects int, seed int64) (*dataset.Dataset, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dataset.Load(f)
	}
	cfg := dataset.DefaultConfig()
	cfg.Seed = seed
	cfg.NumObjects = objects
	return dataset.Generate(cfg)
}

func names(d *dataset.Dataset, o *media.Object, kind media.Kind) []string {
	var out []string
	for _, fid := range o.Feats {
		f := d.Corpus.Dict.Feature(fid)
		if f.Kind == kind {
			out = append(out, f.Name)
		}
	}
	return out
}

func shared(d *dataset.Dataset, a, b *media.Object) []string {
	var out []string
	for _, fid := range a.Feats {
		if b.Has(fid) {
			out = append(out, d.Corpus.Dict.Feature(fid).String())
		}
	}
	if len(out) > 6 {
		out = out[:6]
	}
	if len(out) == 0 {
		out = []string{"(correlation-only match)"}
	}
	return out
}
