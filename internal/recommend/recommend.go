// Package recommend implements the media recommendation model of Section 4.
// A user's profile H_u — the set of objects they favourited — is treated as
// a "big object" whose FIG connects only features originating in the same
// individual object (avoiding the noisy cross-object edges the paper warns
// about), and whose cliques carry the month of their source object. A
// candidate object is scored by Eq. 10: the sum of clique potentials decayed
// by δ^(t_c − t_i), so recent interests dominate (FIG-T). With δ = 1 the
// decay vanishes and the model reduces to the plain FIG recommender.
package recommend

import (
	"context"
	"fmt"
	"math"

	"figfusion/internal/corr"
	"figfusion/internal/fig"
	"figfusion/internal/media"
	"figfusion/internal/mrf"
	"figfusion/internal/topk"
)

// Config assembles a Recommender.
type Config struct {
	// Params are the MRF parameters; Params.Delta is the temporal decay.
	// Zero value means mrf.DefaultParams.
	Params mrf.Params
	// Temporal selects FIG-T (Eq. 10 decay); false gives the plain FIG
	// recommender regardless of Params.Delta.
	Temporal bool
	// BuildOpts configure per-object FIG construction within profiles.
	BuildOpts fig.Options
	// EnumOpts configure clique enumeration.
	EnumOpts fig.EnumerateOptions
}

// Recommender scores candidate objects against user profiles. Safe for
// concurrent use once constructed.
type Recommender struct {
	Model  *corr.Model
	Scorer *mrf.Scorer

	temporal  bool
	buildOpts fig.Options
	enumOpts  fig.EnumerateOptions
}

// New wires a recommender over a correlation model.
func New(m *corr.Model, cfg Config) (*Recommender, error) {
	params := cfg.Params
	if len(params.Lambda) == 0 {
		params = mrf.DefaultParams()
	}
	scorer, err := mrf.NewScorer(m, params)
	if err != nil {
		return nil, fmt.Errorf("recommend: %w", err)
	}
	return &Recommender{
		Model:     m,
		Scorer:    scorer,
		temporal:  cfg.Temporal,
		buildOpts: cfg.BuildOpts,
		enumOpts:  cfg.EnumOpts,
	}, nil
}

// Temporal reports whether the recommender applies Eq. 10 decay.
func (r *Recommender) Temporal() bool { return r.temporal }

// Profile is a preprocessed user history ready for scoring: the history's
// distinct cliques compiled into the production scoring kernel, each with
// its Eq. 10 multiplier. decay[i] collapses every timestamped occurrence
// of clique i into Σ_occurrences δ^(now − t_i) (or the plain occurrence
// count when decay is off), which scores identically to summing ϕ_rec over
// the raw occurrences but evaluates each potential once. Like a prepared
// query, a Profile is invalidated by any corpus mutation: the Eq. 9
// weights are compiled in.
type Profile struct {
	cs    *mrf.CliqueSet
	decay []float64
}

// Len returns the number of distinct cliques in the profile.
func (p *Profile) Len() int { return len(p.decay) }

// BuildProfile converts a favourite history into a scored profile as of
// month now. Decay is applied per Eq. 10 when the recommender is temporal.
func (r *Recommender) BuildProfile(history []*media.Object, now int) *Profile {
	raw := fig.ProfileCliques(history, r.Model, r.buildOpts, r.enumOpts)
	delta := r.Scorer.Params.Delta
	byKey := make(map[string]int)
	var cliques []fig.Clique
	var decay []float64
	for _, c := range raw {
		w := 1.0
		if r.temporal && delta < 1 {
			age := 0
			if c.Month >= 0 && now > c.Month {
				age = now - c.Month
			}
			w = math.Pow(delta, float64(age))
		}
		if i, ok := byKey[c.Key()]; ok {
			decay[i] += w
			continue
		}
		byKey[c.Key()] = len(cliques)
		cliques = append(cliques, c)
		decay = append(decay, w)
	}
	return &Profile{cs: r.Scorer.CompileDecayed(cliques, decay), decay: decay}
}

// Score computes the profile's similarity to one candidate object.
func (r *Recommender) Score(p *Profile, o *media.Object) float64 {
	return p.cs.Score(o)
}

// Recommend ranks the candidate objects for the given history as of month
// now and returns the top k (Definition 2).
func (r *Recommender) Recommend(history []*media.Object, candidates []media.ObjectID, k, now int) []topk.Item {
	// context.Background is never cancelled, so no error can come back.
	out, _ := r.RecommendContext(context.Background(), history, candidates, k, now)
	return out
}

// RecommendContext is Recommend under a context: once it is done the
// ranking stops and ctx.Err() comes back with no items.
func (r *Recommender) RecommendContext(ctx context.Context, history []*media.Object, candidates []media.ObjectID, k, now int) ([]topk.Item, error) {
	return r.RecommendProfile(ctx, r.BuildProfile(history, now), candidates, k)
}

// RecommendProfile ranks candidates against a prebuilt profile, letting
// callers reuse the profile across parameter sweeps. Scoring fans out
// across CPUs; results are deterministic (ties break by object ID).
func (r *Recommender) RecommendProfile(ctx context.Context, p *Profile, candidates []media.ObjectID, k int) ([]topk.Item, error) {
	return p.cs.Rank(ctx, candidates, k, 0, nil)
}
