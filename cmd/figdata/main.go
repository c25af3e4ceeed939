// Command figdata generates a synthetic social-media corpus — the offline
// stand-in for the paper's Flickr crawl — and persists it to a gob file
// that figsearch can load, so repeated experiments share one corpus.
//
// Usage:
//
//	figdata -out corpus.gob -objects 20000 -topics 24 -seed 7
//	figdata -out corpus.gob -index snap -shards 4   # sharded snapshot set for figserver -shards 4
//	figdata -inspect snap.0                         # print an index snapshot's header
//	figdata -inspect snap.manifest.json             # a snapshot set: manifest + every shard
//	figdata -inspect snapshots/                     # every snapshot set under a directory
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"strings"

	"figfusion/internal/atomicfile"
	"figfusion/internal/dataset"
	"figfusion/internal/fig"
	"figfusion/internal/index"
	"figfusion/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figdata: ")
	var (
		out     = flag.String("out", "corpus.gob", "output file")
		objects = flag.Int("objects", 5000, "number of objects |D|")
		topics  = flag.Int("topics", 0, "number of planted topics (0 = scale-derived)")
		months  = flag.Int("months", 6, "timeline length in months")
		seed    = flag.Int64("seed", 1, "generation seed")
		idxOut  = flag.String("index", "", "also build and persist the clique index to this file (with -shards > 1: the base path of the sharded snapshot set)")
		shards  = flag.Int("shards", 1, "partition the index across this many shards; writes <index>.manifest.json plus one snapshot per shard")
		inspect = flag.String("inspect", "", "inspect and exit: an index snapshot, a .manifest.json snapshot set, or a directory of snapshot sets (e.g. a router manifest directory)")
	)
	flag.Parse()

	if *inspect != "" {
		if err := inspectPath(*inspect); err != nil {
			log.Fatal(err)
		}
		return
	}

	cfg := dataset.DefaultConfig()
	cfg.Seed = *seed
	cfg.NumObjects = *objects
	cfg.Months = *months
	if *topics > 0 {
		cfg.NumTopics = *topics
	} else {
		cfg.NumTopics = *objects / 40
		if cfg.NumTopics < 8 {
			cfg.NumTopics = 8
		}
		if cfg.NumTopics > 48 {
			cfg.NumTopics = 48
		}
	}
	d, err := dataset.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := atomicfile.Write(*out, d.Save); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s: %d objects, %d features, %d topics, %d users, %d visual words\n",
		*out, d.Corpus.Len(), d.Corpus.Dict.Len(), cfg.NumTopics, d.Network.Len(), d.Vocab.Size())
	if *idxOut != "" && *shards > 1 {
		model := d.TrainedModel(*seed)
		router, err := shard.NewRouter(model, shard.Config{Shards: *shards})
		if err != nil {
			log.Fatal(err)
		}
		man, err := router.Save(*idxOut)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s: %d shards cut at %d objects\n", shard.ManifestPath(*idxOut), man.Shards, man.Objects)
		for _, si := range router.ShardInfos() {
			fmt.Printf("  shard %d: %d objects, %d cliques, %d postings\n", si.Shard, si.Objects, si.Cliques, si.Postings)
		}
		return
	}
	if *idxOut != "" {
		model := d.TrainedModel(*seed)
		inv := index.Build(model, fig.Options{}, fig.EnumerateOptions{})
		if err := atomicfile.Write(*idxOut, inv.Save); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s: %d cliques, %d postings\n", *idxOut, inv.NumCliques(), inv.Postings())
	}
}

// inspectPath dispatches -inspect on what the path is: a directory walks
// every snapshot set under it, a manifest reports its whole set, anything
// else is a single snapshot file.
func inspectPath(path string) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	switch {
	case fi.IsDir():
		return inspectDir(path)
	case strings.HasSuffix(path, shard.ManifestSuffix):
		return inspectManifest(path)
	default:
		return inspectSnapshot(path)
	}
}

// inspectDir recursively reports every snapshot set (manifest plus its
// per-shard snapshots) under dir — the router-manifest-directory form, for
// auditing a multi-node deployment's on-disk state in one pass.
func inspectDir(dir string) error {
	manifests := 0
	var failed []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		if d.IsDir() || !strings.HasSuffix(p, shard.ManifestSuffix) {
			return nil
		}
		if manifests > 0 {
			fmt.Println()
		}
		manifests++
		if err := inspectManifest(p); err != nil {
			fmt.Printf("  ERROR: %v\n", err)
			failed = append(failed, p)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if manifests == 0 {
		return fmt.Errorf("no *%s snapshot sets under %s", shard.ManifestSuffix, dir)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d snapshot sets failed inspection: %s", len(failed), manifests, strings.Join(failed, ", "))
	}
	fmt.Printf("\n%d snapshot set(s) inspected, all sections ok\n", manifests)
	return nil
}

// inspectManifest reports one snapshot set: the manifest's totals, then
// every per-shard snapshot's header, counts and per-section checksum
// status.
func inspectManifest(path string) error {
	man, err := shard.ReadManifest(path)
	if err != nil {
		return err
	}
	fmt.Printf("%s: v%d snapshot set, %d shard(s) cut at %d objects (generation %d, %d inserts)\n",
		path, man.Version, man.Shards, man.Objects, man.Generation, man.Inserts)
	dir := filepath.Dir(path)
	var missing []string
	for _, name := range man.Files {
		full := filepath.Join(dir, name)
		if err := inspectSnapshot(full); err != nil {
			fmt.Printf("%s: ERROR: %v\n", full, err)
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s: %d of %d shard snapshots unreadable: %s",
			path, len(missing), man.Shards, strings.Join(missing, ", "))
	}
	return nil
}

// inspectSnapshot prints an index snapshot's header and section summary
// without building a servable index.
func inspectSnapshot(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := index.InspectSnapshot(f)
	if err != nil {
		return err
	}
	fmt.Printf("%s: segment snapshot, %d bytes\n", path, info.Bytes)
	fmt.Printf("  version %d, saved at generation %d, header crc %08x\n", info.Version, info.Generation, info.HeaderCRC)
	fmt.Printf("  %d entries (%d fresh), %d features, %d postings, %d blocks\n",
		info.Entries, info.Fresh, info.Feats, info.Postings, info.Blocks)
	for _, s := range info.Sections {
		status := "ok"
		if !s.OK {
			status = "CORRUPT"
		}
		fmt.Printf("  section %-8s %10d bytes  crc %08x  %s\n", s.Name, s.Bytes, s.CRC, status)
	}
	return nil
}
