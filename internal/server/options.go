package server

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"figfusion/internal/retrieval"
)

// Options is the one configuration surface of the serving binary: every
// figserver flag parses into it, and the server consumes it directly.
// Defaults live in DefaultOptions alone — Flags registers each flag with
// the receiver's current value as its default, so flag defaults and
// struct values cannot drift apart.
type Options struct {
	// Addr is the HTTP listen address.
	Addr string
	// Data is a corpus gob written by figdata; empty generates a corpus.
	Data string
	// Objects is the generated corpus size (used when Data is empty).
	Objects int
	// Seed seeds corpus generation and threshold training.
	Seed int64
	// Index is a prebuilt index: the snapshot file figdata -index wrote
	// (or /v1/admin/snapshot served) at this Shards count.
	Index string
	// Shards is the engine shard count; > 1 serves scatter-gather over a
	// partitioned index.
	Shards int
	// Workers is the scoring fan-out per engine (0 = GOMAXPROCS; sharded
	// deployments usually keep 1 per shard).
	Workers int
	// Pruning names the retrieval.PruningMode the caller built its engines
	// with ("off" or "blockmax"). It is not a flag and the server never
	// reads it: figserver always serves blockmax. The field and PruningMode
	// remain only because bench/fixture.go, which this package may not
	// break, carries the mode of its unpruned reference through them.
	Pruning string
	// Drain is the graceful-shutdown drain timeout.
	Drain time.Duration
	// QueryTimeout bounds one search request; on expiry the handler
	// cancels the engine mid-scoring and answers with the
	// deadline_exceeded error code (0 = unbounded).
	QueryTimeout time.Duration
	// SlowQuery is the slow-query-log threshold: queries at or above it
	// are retained in the bounded slow log exposed at /v1/metrics.
	SlowQuery time.Duration
	// Metrics toggles the observability registry (counters, latency
	// histograms, slow-query log, /v1/metrics). Default on; disabling
	// reduces the serving path to the bare engine.
	Metrics bool
	// MaxInflight caps concurrently executing search-family requests
	// (search, batch, recommend); 0 disables admission control. With it
	// set, up to MaxQueue further requests wait for a slot and the rest
	// are shed with 503/unavailable + Retry-After, counted as
	// server.shed.requests.
	MaxInflight int
	// MaxQueue bounds the admission wait queue behind MaxInflight
	// (ignored when MaxInflight is 0). 0 means shed as soon as every
	// slot is busy.
	MaxQueue int
	// Coalesce enables single-flight coalescing of identical in-flight
	// searches plus the generation-stamped result cache: identical
	// concurrent queries share one engine execution, repeats are answered
	// from cache until the next insert bumps the corpus-global model
	// generation.
	Coalesce bool
	// Pprof mounts net/http/pprof under /debug/pprof/ when set.
	Pprof bool
	// Role selects the multi-node serving mode: "" or "standalone" serves
	// locally (the single-binary default), "shard" serves one node's
	// partition of the shared node list, "router" scatter-gathers searches
	// and replicates inserts across the nodes.
	Role string
	// Nodes is the shared comma-separated node list (host:port or URL per
	// entry). Every node and the router must pass the identical list: the
	// entries are the identities the consistent-hash partition is computed
	// from.
	Nodes string
	// NodeName identifies which entry of Nodes this process is (role
	// "shard" only).
	NodeName string
	// Bootstrap is a peer URL to stream this node's snapshot from at
	// startup via /v1/admin/snapshot (role "shard" only; empty builds the
	// partition's index locally).
	Bootstrap string
	// HedgeAfter enables hedged cluster requests: a node not answering
	// after max(HedgeAfter, its p99) gets a second identical request (role
	// "router" only; 0 disables hedging).
	HedgeAfter time.Duration
	// ProbeInterval is the cluster health-probe period (role "router"
	// only; 0 = the cluster default).
	ProbeInterval time.Duration
}

// DefaultOptions returns the serving defaults.
func DefaultOptions() Options {
	return Options{
		Addr:         ":8080",
		Objects:      2000,
		Seed:         1,
		Shards:       1,
		Drain:        10 * time.Second,
		QueryTimeout: 10 * time.Second,
		SlowQuery:    250 * time.Millisecond,
		Pruning:      retrieval.PruneBlockMax.String(),
		Metrics:      true,
		MaxInflight:  64,
		MaxQueue:     256,
		Coalesce:     true,
	}
}

// Flags registers every option on fs, defaulting to the receiver's
// current values. Call Validate after fs.Parse.
func (o *Options) Flags(fs *flag.FlagSet) {
	fs.StringVar(&o.Addr, "addr", o.Addr, "listen address")
	fs.StringVar(&o.Data, "data", o.Data, "corpus gob written by figdata (empty = generate)")
	fs.IntVar(&o.Objects, "objects", o.Objects, "corpus size when generating")
	fs.Int64Var(&o.Seed, "seed", o.Seed, "generation seed")
	fs.StringVar(&o.Index, "index", o.Index, "prebuilt index: the snapshot file from figdata -index, written at the same -shards")
	fs.IntVar(&o.Shards, "shards", o.Shards, "engine shards; > 1 serves scatter-gather over a partitioned index")
	fs.IntVar(&o.Workers, "workers", o.Workers, "scoring workers per engine (0 = GOMAXPROCS; sharded mode usually keeps 1 per shard)")
	fs.DurationVar(&o.Drain, "drain", o.Drain, "graceful-shutdown drain timeout")
	fs.DurationVar(&o.QueryTimeout, "query-timeout", o.QueryTimeout, "per-request search budget; expiry answers deadline_exceeded (0 = unbounded)")
	fs.DurationVar(&o.SlowQuery, "slow-query", o.SlowQuery, "slow-query-log threshold")
	fs.BoolVar(&o.Metrics, "metrics", o.Metrics, "enable the metrics registry and /v1/metrics")
	fs.IntVar(&o.MaxInflight, "max-inflight", o.MaxInflight, "admission control: concurrently executing search-family requests (0 = unbounded)")
	fs.IntVar(&o.MaxQueue, "max-queue", o.MaxQueue, "admission control: requests waiting behind -max-inflight before shedding with 503")
	fs.BoolVar(&o.Coalesce, "coalesce", o.Coalesce, "coalesce identical in-flight searches and cache results until the next insert")
	fs.BoolVar(&o.Pprof, "pprof", o.Pprof, "mount net/http/pprof under /debug/pprof/")
	fs.StringVar(&o.Role, "role", o.Role, "multi-node role: standalone (default), shard (serve one partition of -nodes), or router (scatter-gather over -nodes)")
	fs.StringVar(&o.Nodes, "nodes", o.Nodes, "comma-separated node list shared by every role (host:port or URL per entry)")
	fs.StringVar(&o.NodeName, "node-name", o.NodeName, "which -nodes entry this process is (role shard)")
	fs.StringVar(&o.Bootstrap, "bootstrap", o.Bootstrap, "peer URL to stream this node's snapshot from at startup (role shard)")
	fs.DurationVar(&o.HedgeAfter, "hedge-after", o.HedgeAfter, "hedged-request delay floor for slow nodes (role router; 0 = no hedging)")
	fs.DurationVar(&o.ProbeInterval, "probe-interval", o.ProbeInterval, "cluster health-probe period (role router; 0 = default)")
}

// Validate rejects option combinations the server cannot serve.
func (o Options) Validate() error {
	if o.Addr == "" {
		return fmt.Errorf("server: addr must not be empty")
	}
	if o.Data == "" && o.Objects < 1 {
		return fmt.Errorf("server: objects must be >= 1 when generating a corpus, got %d", o.Objects)
	}
	if o.Shards < 1 {
		return fmt.Errorf("server: shards must be >= 1, got %d", o.Shards)
	}
	if o.Workers < 0 {
		return fmt.Errorf("server: workers must be >= 0, got %d", o.Workers)
	}
	if o.Drain <= 0 {
		return fmt.Errorf("server: drain must be positive, got %s", o.Drain)
	}
	if o.QueryTimeout < 0 {
		return fmt.Errorf("server: query-timeout must be >= 0, got %s", o.QueryTimeout)
	}
	if o.SlowQuery < 0 {
		return fmt.Errorf("server: slow-query must be >= 0, got %s", o.SlowQuery)
	}
	if o.MaxInflight < 0 {
		return fmt.Errorf("server: max-inflight must be >= 0, got %d", o.MaxInflight)
	}
	if o.MaxQueue < 0 {
		return fmt.Errorf("server: max-queue must be >= 0, got %d", o.MaxQueue)
	}
	switch o.Role {
	case "", "standalone":
		if o.Nodes != "" || o.NodeName != "" || o.Bootstrap != "" {
			return fmt.Errorf("server: -nodes/-node-name/-bootstrap require -role shard or router")
		}
	case "shard":
		if len(o.NodeList()) == 0 {
			return fmt.Errorf("server: role shard requires the shared -nodes list")
		}
		if o.NodeName == "" {
			return fmt.Errorf("server: role shard requires -node-name (which -nodes entry this process is)")
		}
	case "router":
		if len(o.NodeList()) == 0 {
			return fmt.Errorf("server: role router requires the shared -nodes list")
		}
		if o.NodeName != "" || o.Bootstrap != "" {
			return fmt.Errorf("server: -node-name/-bootstrap apply to role shard, not router")
		}
	default:
		return fmt.Errorf("server: role must be standalone, shard or router, got %q", o.Role)
	}
	if o.HedgeAfter < 0 {
		return fmt.Errorf("server: hedge-after must be >= 0, got %s", o.HedgeAfter)
	}
	if o.ProbeInterval < 0 {
		return fmt.Errorf("server: probe-interval must be >= 0, got %s", o.ProbeInterval)
	}
	return nil
}

// NodeList splits the shared -nodes list into its entries, dropping empty
// segments (a trailing comma is not a node).
func (o Options) NodeList() []string {
	if o.Nodes == "" {
		return nil
	}
	var out []string
	for _, n := range strings.Split(o.Nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// PruningMode parses the Pruning option. An empty string means the zero
// Options value was used without DefaultOptions; that maps to off, the
// library default.
func (o Options) PruningMode() (retrieval.PruningMode, error) {
	if o.Pruning == "" {
		return retrieval.PruneOff, nil
	}
	return retrieval.ParsePruningMode(o.Pruning)
}
