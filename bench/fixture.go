package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"figfusion/internal/client"
	"figfusion/internal/cluster"
	"figfusion/internal/corr"
	"figfusion/internal/dataset"
	"figfusion/internal/obs"
	"figfusion/internal/retrieval"
	"figfusion/internal/server"
	"figfusion/internal/shard"
)

// fleetNodes is the fleet workload's node count. The names are fixed (the
// rendezvous partition hashes them), so the partition — and every count
// derived from it — is the same on every run.
var fleetNodes = []string{"bench-node0", "bench-node1"}

// corpusSeed seeds the fixtures — the corpus, its trained thresholds, and
// which objects the op lists and the correctness check draw on — so every
// run measures the same corpus. Across corpus seeds the index alone varies
// by ±5% in size and the latency medians by more, which would drown the
// bounds; the run's -seed varies the op lists instead (buildPlan).
const corpusSeed = 1

// generate builds one independent copy of the workload's corpus. Inserts
// mutate a corpus in place, so every engine that ingests gets its own copy.
func generate(objects int) (*dataset.Dataset, error) {
	cfg := dataset.DefaultConfig()
	cfg.Seed = corpusSeed
	cfg.NumObjects = objects
	cfg.NumTopics = objects / 40 // the figbench rule: ~40 objects per topic, at most 48 topics
	if cfg.NumTopics > 48 {
		cfg.NumTopics = 48
	}
	return dataset.Generate(cfg)
}

// trainedModel is the first half of the serving binaries' start-up: a
// fresh correlation model over the dataset with trained thresholds.
func trainedModel(d *dataset.Dataset) *corr.Model {
	m := d.Model()
	m.TrainThresholds(200, 0.35, rand.New(rand.NewSource(corpusSeed+13)))
	return m
}

// instance is one booted serving stack behind loopback listeners: a
// standalone server, or a cluster router over shard nodes.
type instance struct {
	base  string           // address of the front server
	front *server.Server   // standalone server or cluster router
	nodes []*server.Server // fleet: the shard nodes' servers

	engine  *retrieval.Engine // standalone
	routers []*shard.Router   // fleet: the nodes' shard routers
	cluster *cluster.Cluster  // fleet

	stop []func() // teardown, run in reverse
}

// close stops the listeners, the cluster's probe loop and its pooled
// connections, waits for every serve goroutine to end, and drops the
// stack. Closing twice is harmless.
func (in *instance) close() {
	for i := len(in.stop) - 1; i >= 0; i-- {
		in.stop[i]()
	}
	*in = instance{} // let the collector have the indexes: heap_mb is read later
}

// engineRegistries are the registries that hold the retrieval, cache and
// index instruments: the nodes' on a fleet, the front server's otherwise.
func (in *instance) engineRegistries() []*obs.Registry {
	if len(in.nodes) == 0 {
		return []*obs.Registry{in.front.Registry()}
	}
	regs := make([]*obs.Registry, len(in.nodes))
	for i, n := range in.nodes {
		regs[i] = n.Registry()
	}
	return regs
}

// indexCounts sums clique and posting counts over the instance's indexes.
func (in *instance) indexCounts() (cliques, postings int) {
	if in.engine != nil {
		return in.engine.Index.NumCliques(), in.engine.Index.Postings()
	}
	for _, r := range in.routers {
		for _, si := range r.ShardInfos() {
			cliques += si.Cliques
			postings += si.Postings
		}
	}
	return cliques, postings
}

// snapshotBytes is the size of the instance's persisted form: the FSG1
// segment of a standalone index, or the nodes' snapshot streams summed.
func (in *instance) snapshotBytes() (int64, error) {
	var cw countingWriter
	if in.engine != nil {
		err := in.engine.Index.Save(&cw)
		return cw.n, err
	}
	for _, r := range in.routers {
		if err := r.StreamSnapshot(&cw); err != nil {
			return 0, err
		}
	}
	return cw.n, nil
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// wrapFunc lets the tracer put its own handler around a server's; role is
// "front" or "node" and node the node's index.
type wrapFunc func(role string, node int, h http.Handler) http.Handler

// listen serves h on a fresh loopback port with figserver's timeouts and
// registers the teardown.
func (in *instance) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, WriteTimeout: 30 * time.Second}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = hs.Serve(ln) // always http.ErrServerClosed: close below is the only way out
	}()
	in.stop = append(in.stop, func() {
		_ = hs.Close()
		wg.Wait()
	})
	return ln.Addr().String(), nil
}

// awaitHealthy polls /v1/healthz until the server answers 200.
func awaitHealthy(ctx context.Context, base string) error {
	c := client.New(base, client.WithRetries(0))
	defer c.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := c.Healthz(ctx)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s never became healthy: %w", base, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// setupStandalone is figserver's default start-up: model, thresholds,
// index build, server, first healthy answer.
func setupStandalone(ctx context.Context, d *dataset.Dataset, pruning retrieval.PruningMode, wrap wrapFunc) (*instance, error) {
	opts := server.DefaultOptions()
	opts.Pruning = pruning.String()
	engine, err := retrieval.NewEngine(trainedModel(d), retrieval.Config{Workers: opts.Workers, Pruning: pruning})
	if err != nil {
		return nil, err
	}
	in := &instance{engine: engine, front: server.New(engine, opts)}
	if in.base, err = in.listen(wrap("front", 0, in.front.Handler())); err != nil {
		return nil, err
	}
	if err := awaitHealthy(ctx, in.base); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// setupFleet is a two-node deployment's start-up: per node a model, its
// partition's index and a sharded server; then the router's mirror model,
// the cluster over loopback HTTP backends, and the router's server. ds
// holds one dataset copy per node followed by the mirror's.
func setupFleet(ctx context.Context, ds []*dataset.Dataset, wrap wrapFunc) (in *instance, err error) {
	if len(ds) != len(fleetNodes)+1 {
		return nil, fmt.Errorf("fleet set-up needs %d dataset copies, got %d", len(fleetNodes)+1, len(ds))
	}
	opts := server.DefaultOptions()
	pruning, err := opts.PruningMode()
	if err != nil {
		return nil, err
	}
	assign, err := cluster.NewAssignment(fleetNodes)
	if err != nil {
		return nil, err
	}
	in = &instance{}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	nodes := make([]cluster.NodeConfig, len(fleetNodes))
	for i, name := range fleetNodes {
		router, rerr := shard.NewRouter(trainedModel(ds[i]), shard.Config{
			Shards:    opts.Shards,
			Retrieval: retrieval.Config{Workers: opts.Workers, Pruning: pruning},
			Owns:      assign.Owns(i),
		})
		if rerr != nil {
			return nil, rerr
		}
		srv := server.NewSharded(router, opts)
		addr, lerr := in.listen(wrap("node", i, srv.Handler()))
		if lerr != nil {
			return nil, lerr
		}
		in.routers = append(in.routers, router)
		in.nodes = append(in.nodes, srv)
		nodes[i] = cluster.NodeConfig{Name: name, Backend: cluster.NewHTTPBackend(addr)}
	}
	in.cluster, err = cluster.New(cluster.Config{Mirror: trainedModel(ds[len(fleetNodes)]), Nodes: nodes})
	if err != nil {
		return nil, err
	}
	probeCtx, cancel := context.WithCancel(ctx)
	in.cluster.Start(probeCtx)
	in.stop = append(in.stop, func() {
		cancel()
		_ = in.cluster.Close()
	})
	in.front = server.NewCluster(in.cluster, opts)
	if in.base, err = in.listen(wrap("front", 0, in.front.Handler())); err != nil {
		return nil, err
	}
	for _, nc := range nodes {
		if err = awaitHealthy(ctx, nc.Backend.(*cluster.HTTPBackend).Base()); err != nil {
			return nil, err
		}
	}
	if err = awaitHealthy(ctx, in.base); err != nil {
		return nil, err
	}
	return in, nil
}

// noWrap serves a server's handler as it is.
func noWrap(_ string, _ int, h http.Handler) http.Handler { return h }
