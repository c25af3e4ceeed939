package experiments

import (
	"fmt"
	"math/rand"

	"figfusion/internal/dataset"
	"figfusion/internal/eval"
	"figfusion/internal/fig"
	"figfusion/internal/media"
	"figfusion/internal/retrieval"
)

// MusicTable is the extension experiment for the paper's claim that the
// solution "can be easily extended to facilitate other social media
// environments, such as video and music": the Figure 5-style modality
// ablation on a music corpus ⟨tags, audio words, listeners⟩, genre-planted
// relevance.
func MusicTable(o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	cfg := dataset.DefaultMusicConfig()
	cfg.Seed = o.Seed + 2000
	cfg.NumTracks = o.Scale
	cfg.NumGenres = dataset.TopicsForScale(o.Scale) / 2
	if cfg.NumGenres < 4 {
		cfg.NumGenres = 4
	}
	d, err := dataset.GenerateMusic(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.Seed + 23))
	queries := d.SampleQueries(o.Queries, rng)
	combos := []struct {
		label string
		kinds []media.Kind
	}{
		{"Audio", []media.Kind{media.Audio}},
		{"Text", []media.Kind{media.Text}},
		{"User", []media.Kind{media.User}},
		{"Audio+Text", []media.Kind{media.Audio, media.Text}},
		{"Text+User", []media.Kind{media.Text, media.User}},
		{"FIG", nil},
	}
	t := &Table{
		Title:   "Extension: music retrieval Precision@N by feature combination",
		Columns: nColumns(retrievalNs),
		Note: fmt.Sprintf("%d tracks, %d genres, %d queries, genre-planted relevance",
			d.Corpus.Len(), cfg.NumGenres, len(queries)),
	}
	model := d.TrainedModel(o.Seed)
	for _, combo := range combos {
		engine, err := retrieval.NewEngine(model, retrieval.Config{
			BuildOpts: fig.Options{Kinds: combo.kinds},
		})
		if err != nil {
			return nil, err
		}
		sys := eval.FIGSystem{Engine: engine, Label: combo.label}
		p := eval.RetrievalPrecision(sys, d.Corpus, queries, retrievalNs, dataset.Relevant)
		t.Rows = append(t.Rows, Row{Label: combo.label, Values: valuesFor(p, retrievalNs)})
	}
	return t, nil
}
