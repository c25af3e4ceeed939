package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"figfusion/internal/api"
	"figfusion/internal/client"
	"figfusion/internal/dataset"
	"figfusion/internal/media"
)

// verify is the correctness check, run untimed after the drive with the
// system quiesced. The reference — a standalone server with pruning off
// over its own build and its own corpus copy — first replays the run's
// inserts in order; then every held-out query is asked of both on the ta
// path, and the first verifySearches of them on the search path too (the
// reference answers those from cold caches, ~150 ms each at 4000 objects). Each pair of answers must be identical as wire JSON (float64
// scores round-trip exactly, so equal re-marshalled bytes mean equal
// response bytes): the repo's pruning and scatter-gather parity contracts.
// It returns the mean Precision@10 of the system's search answers.
//
// corrupt, set only by the verification test, mangles the bodies the
// system under test returns.
func verify(ctx context.Context, sut, ref *instance, pl *plan, d *dataset.Dataset, objects int, corrupt func([]byte) []byte) (float64, error) {
	refClient := client.New(ref.base, client.WithRetries(0))
	defer refClient.Close()
	sutOpts := []client.Option{client.WithRetries(0)}
	if corrupt != nil {
		sutOpts = append(sutOpts, client.WithHTTPClient(&http.Client{Transport: &transport{base: &http.Transport{}, corrupt: corrupt}}))
	}
	sutClient := client.New(sut.base, sutOpts...)
	defer sutClient.Close()

	for _, o := range pl.insertOps() {
		resp, err := refClient.Insert(ctx, o.Insert)
		if err != nil {
			return 0, fmt.Errorf("verify: reference replay of %s: %w", o, err)
		}
		if resp.ID != o.Query {
			return 0, fmt.Errorf("verify: reference replay of %s assigned id %d", o, resp.ID)
		}
	}

	// labelled resolves any id the system may return to an object that
	// carries the planted relevance label: an inserted object is judged as
	// the held-out object it re-posts. d's corpus has grown by the replay,
	// so the original size is passed in.
	labelled := func(id int64) *media.Object {
		if id >= int64(objects) {
			id = pl.Sources[id-int64(objects)]
		}
		return d.Corpus.Object(media.ObjectID(id))
	}
	// ask puts one query to both servers at once: the two engines share no
	// state, and the TA path is single-threaded on each.
	ask := func(o op) (got, want *api.WireSearchResponse, err error) {
		var wg sync.WaitGroup
		var refErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			want, refErr = refClient.Search(ctx, o.request())
		}()
		got, err = sutClient.Search(ctx, o.request())
		wg.Wait()
		if err == nil && refErr != nil {
			err = fmt.Errorf("reference: %w", refErr)
		}
		return got, want, err
	}
	relevant := 0
	for i, id := range pl.Verify {
		for _, kind := range []opKind{opTA, opSearch} {
			if kind == opSearch && i >= verifySearches {
				continue
			}
			o := op{Kind: kind, Query: id}
			got, want, err := ask(o)
			if err == nil {
				err = checkRead(o, got)
			}
			if err != nil {
				return 0, fmt.Errorf("verify: %s: %w", o, err)
			}
			gotJSON, _ := json.Marshal(got)   // plain structs of ints and floats: cannot fail
			wantJSON, _ := json.Marshal(want) // likewise
			if !bytes.Equal(gotJSON, wantJSON) {
				return 0, fmt.Errorf("verify: %s: answer differs from the unpruned reference\n  system:    %s\n  reference: %s", o, gotJSON, wantJSON)
			}
			if kind == opSearch {
				for _, it := range got.Results {
					if dataset.Relevant(labelled(id), labelled(it.ID)) {
						relevant++
					}
				}
			}
		}
	}
	return float64(relevant) / float64(topK*verifySearches), nil
}
