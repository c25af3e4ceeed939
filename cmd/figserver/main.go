// Command figserver serves FIG similarity search over a versioned
// HTTP/JSON API: it loads (or generates) a corpus, builds a scatter-gather
// router over one or more engine shards and listens for
// search, inspection, ingestion and observability requests until
// SIGINT/SIGTERM, then drains in-flight requests and exits.
//
// All flags parse into one server.Options (see its Flags method); the
// defaults come from server.DefaultOptions, so the flag surface and the
// struct cannot drift apart.
//
// Usage:
//
//	figserver -addr :8080 -data corpus.gob
//	figserver -addr :8080 -objects 5000        # generate on the fly
//	figserver -addr :8080 -shards 4            # scatter-gather serving
//	figserver -data corpus.gob -shards 4 -index snap   # cold-start from the figdata -shards 4 -index snap file
//	figserver -query-timeout 250ms -pprof      # bounded queries + profiling
//
// Multi-node serving splits the corpus across shard processes behind a
// router, all sharing one -nodes list (and one dataset):
//
//	figserver -role shard  -addr :8081 -data corpus.gob -nodes localhost:8081,localhost:8082 -node-name localhost:8081
//	figserver -role shard  -addr :8082 -data corpus.gob -nodes localhost:8081,localhost:8082 -node-name localhost:8082
//	figserver -role router -addr :8080 -data corpus.gob -nodes localhost:8081,localhost:8082
//
// A replacement shard node can bootstrap its index from a live peer
// instead of building it: add -bootstrap http://localhost:8081. What the
// peer streams is the snapshot file: curl host/v1/admin/snapshot > snap.
//
//	curl 'localhost:8080/v1/search?text=sunset&k=5'
//	curl 'localhost:8080/v1/search?id=42'
//	curl 'localhost:8080/v1/objects/42'
//	curl 'localhost:8080/v1/healthz'
//	curl 'localhost:8080/v1/metrics'
//	curl -XPOST localhost:8080/v1/objects -d '{"tags":["sunset","beach"],"month":5}'
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"figfusion/internal/cluster"
	"figfusion/internal/dataset"
	"figfusion/internal/retrieval"
	"figfusion/internal/server"
	"figfusion/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figserver: ")
	opts := server.DefaultOptions()
	opts.Flags(flag.CommandLine)
	flag.Parse()
	if err := opts.Validate(); err != nil {
		log.Fatal(err)
	}

	var d *dataset.Dataset
	var err error
	if opts.Data != "" {
		f, ferr := os.Open(opts.Data)
		if ferr != nil {
			log.Fatal(ferr)
		}
		d, err = dataset.Load(f)
		f.Close()
	} else {
		cfg := dataset.DefaultConfig()
		cfg.Seed = opts.Seed
		cfg.NumObjects = opts.Objects
		d, err = dataset.Generate(cfg)
	}
	if err != nil {
		log.Fatal(err)
	}
	model := d.TrainedModel(opts.Seed)
	retrievalCfg := retrieval.Config{Workers: opts.Workers, Pruning: retrieval.PruneBlockMax}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var srv *server.Server
	switch opts.Role {
	case "router":
		names := opts.NodeList()
		nodes := make([]cluster.NodeConfig, len(names))
		for i, name := range names {
			nodes[i] = cluster.NodeConfig{Name: name, Backend: cluster.NewHTTPBackend(name)}
		}
		cl, cerr := cluster.New(cluster.Config{
			Mirror:        model,
			Nodes:         nodes,
			HedgeAfter:    opts.HedgeAfter,
			ProbeInterval: opts.ProbeInterval,
		})
		if cerr != nil {
			log.Fatal(cerr)
		}
		defer cl.Close()
		cl.Start(ctx)
		log.Printf("routing over %d nodes: %v (hedge-after %s)", len(names), names, opts.HedgeAfter)
		srv = server.NewCluster(cl, opts)
	case "shard", "", "standalone":
		// Both roles serve a router over this process's shards; a shard
		// node's router indexes only its partition of the node list.
		cfg := shard.Config{Shards: opts.Shards, Retrieval: retrievalCfg}
		if opts.Role == "shard" {
			assign, aerr := cluster.NewAssignment(opts.NodeList())
			if aerr != nil {
				log.Fatal(aerr)
			}
			me, aerr := assign.Index(opts.NodeName)
			if aerr != nil {
				log.Fatal(aerr)
			}
			cfg.Owns = assign.Owns(me)
			log.Printf("node %s (%d of %d)", opts.NodeName, me, assign.Len())
		}
		var router *shard.Router
		switch {
		case opts.Bootstrap != "":
			rc, ferr := cluster.FetchSnapshot(ctx, opts.Bootstrap)
			if ferr != nil {
				log.Fatal(ferr)
			}
			r, man, lerr := shard.LoadSnapshotStream(model, cfg, rc)
			rc.Close()
			if lerr != nil {
				log.Fatal(lerr)
			}
			router = r
			log.Printf("bootstrapped from %s: %d shards, cut at %d objects", opts.Bootstrap, man.Shards, man.Objects)
		case opts.Index != "":
			r, man, lerr := shard.Load(model, cfg, opts.Index)
			if lerr != nil {
				log.Fatal(lerr)
			}
			router = r
			log.Printf("loaded snapshot %s: %d shards, cut at %d objects", opts.Index, man.Shards, man.Objects)
		default:
			router, err = shard.NewRouter(model, cfg)
			if err != nil {
				log.Fatal(err)
			}
		}
		for _, si := range router.ShardInfos() {
			log.Printf("shard %d: %d objects, %d cliques, %d postings", si.Shard, si.Objects, si.Cliques, si.Postings)
		}
		srv = server.NewSharded(router, opts)
	}

	httpSrv := &http.Server{
		Addr:              opts.Addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      30 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("serving %d objects on %s (%d shard(s), query timeout %s, metrics %v)",
		d.Corpus.Len(), opts.Addr, opts.Shards, opts.QueryTimeout, opts.Metrics)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // restore default signal behaviour: a second signal kills immediately
	log.Printf("signal received, draining (timeout %s)", opts.Drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), opts.Drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Fatalf("drain: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Printf("drained, bye")
}
