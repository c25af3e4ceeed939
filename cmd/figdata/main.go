// Command figdata generates a synthetic social-media corpus — the offline
// stand-in for the paper's Flickr crawl — and persists it to a gob file
// that figsearch can load, so repeated experiments share one corpus.
//
// Usage:
//
//	figdata -out corpus.gob -objects 20000 -topics 24 -seed 7
//	figdata -out corpus.gob -index snap -shards 4   # plus the snapshot file figserver -shards 4 -index snap loads
//	figdata -inspect snap                           # print a snapshot's manifest and every shard segment's header
//	figdata -inspect snapshots/                     # every snapshot file under a directory
package main

import (
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"strings"

	"figfusion/internal/atomicfile"
	"figfusion/internal/dataset"
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
		idxOut  = flag.String("index", "", "also build the clique index and persist it to this snapshot file (figserver -index)")
		shards  = flag.Int("shards", 1, "partition the snapshot's index across this many shards (figserver -shards)")
		inspect = flag.String("inspect", "", "inspect and exit: a snapshot file, or a directory of snapshot files")
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
	cfg.NumTopics = *topics
	if *topics <= 0 {
		cfg.NumTopics = dataset.TopicsForScale(*objects)
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
	if *idxOut == "" {
		return
	}
	router, err := shard.NewRouter(d.TrainedModel(*seed), shard.Config{Shards: *shards})
	if err != nil {
		log.Fatal(err)
	}
	man, err := router.Save(*idxOut)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s: %d shard(s) cut at %d objects\n", *idxOut, man.Shards, man.Objects)
	for _, si := range router.ShardInfos() {
		fmt.Printf("  shard %d: %d objects, %d cliques, %d postings\n", si.Shard, si.Objects, si.Cliques, si.Postings)
	}
}

// inspectPath reports the snapshot at path, or every file under it when it
// is a directory — auditing a deployment's on-disk state in one pass.
func inspectPath(path string) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if !fi.IsDir() {
		return inspectSnapshot(path)
	}
	files := 0
	var failed []string
	err = filepath.WalkDir(path, func(p string, d fs.DirEntry, werr error) error {
		if werr != nil || d.IsDir() {
			return werr
		}
		files++
		if err := inspectSnapshot(p); err != nil {
			fmt.Printf("%s: ERROR: %v\n", p, err)
			failed = append(failed, p)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if files == 0 {
		return fmt.Errorf("no files under %s", path)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d files under %s failed inspection: %s", len(failed), files, path, strings.Join(failed, ", "))
	}
	fmt.Printf("%d snapshot(s) inspected, all sections ok\n", files)
	return nil
}

// inspectSnapshot prints a snapshot's manifest and each shard segment's
// header and section summary without building a servable index.
func inspectSnapshot(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return shard.ReadSnapshot(f, func(man *shard.Manifest) error {
		fmt.Printf("%s: v%d snapshot, %d shard(s) cut at %d objects over %d features (generation %d, %d inserts)\n",
			path, man.Version, man.Shards, man.Objects, man.Features, man.Generation, man.Inserts)
		return nil
	}, func(s int, seg io.Reader) error {
		info, err := index.InspectSnapshot(seg)
		if err != nil {
			return err
		}
		fmt.Printf("  shard %d: FSG1 segment, %d bytes, version %d, saved at generation %d, header crc %08x\n",
			s, info.Bytes, info.Version, info.Generation, info.HeaderCRC)
		fmt.Printf("    %d entries (%d fresh), %d features, %d postings, %d blocks\n",
			info.Entries, info.Fresh, info.Feats, info.Postings, info.Blocks)
		for _, sec := range info.Sections {
			if !sec.OK {
				err = fmt.Errorf("section %s fails its checksum", sec.Name)
			}
			fmt.Printf("    section %-8s %10d bytes  crc %08x  ok=%v\n", sec.Name, sec.Bytes, sec.CRC, sec.OK)
		}
		return err
	})
}
