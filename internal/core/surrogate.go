package core

import (
	"fmt"

	"repro/internal/encode"
	"repro/internal/nn"
	"repro/internal/tag"
)

// This file implements graceful degradation's answer machine. The
// paper already trains a surrogate classifier f_θ1 on the labeled set
// (Section V-A) to *estimate* which nodes the LLM can classify from
// text alone; the same model can *answer* for nodes the LLM cannot
// reach — a timed-out query, an open circuit breaker, an exhausted
// token budget. Surrogate answers are cheaper and weaker than LLM
// answers, so the executor tracks them separately (Results.Fallback)
// and reports coverage alongside accuracy.

// SurrogateConfig tunes FitSurrogate. The zero value is replaced by
// DefaultSurrogateConfig.
type SurrogateConfig struct {
	// MLP configures the classifier (the paper's small-dataset default
	// is a linear softmax model).
	MLP nn.MLPConfig
	// Folds is the cross-validation fold count whose per-fold models
	// are averaged at prediction time (the paper uses 3).
	Folds int
	// MaxFeatures caps the TF-IDF feature dimension.
	MaxFeatures int
	// Seed drives fold assignment and weight initialization.
	Seed uint64
}

// DefaultSurrogateConfig mirrors the inadequacy measure's surrogate
// settings, so a fallback-only fit matches what pruning would train.
func DefaultSurrogateConfig() SurrogateConfig {
	return SurrogateConfig{
		MLP:         nn.DefaultMLPConfig(),
		Folds:       3,
		MaxFeatures: 512,
		Seed:        1,
	}
}

// Surrogate is a trained text-only classifier used to answer queries
// the LLM path could not. It is immutable after fitting and safe for
// concurrent use.
type Surrogate struct {
	enc      *encode.Encoder
	ensemble *nn.Ensemble
	classes  []string
}

// FitSurrogate trains the paper's surrogate classifier f_θ1 on the
// labeled set: TF-IDF features over the whole corpus, k-fold ensemble
// over the labeled nodes. No LLM queries are spent. Zero fields of cfg
// take DefaultSurrogateConfig's values.
func FitSurrogate(g *tag.Graph, labeled []tag.NodeID, cfg SurrogateConfig) (*Surrogate, error) {
	if len(labeled) == 0 {
		return nil, fmt.Errorf("core: surrogate needs a labeled set")
	}
	def := DefaultSurrogateConfig()
	if cfg.Folds <= 0 {
		cfg.Folds = def.Folds
	}
	if cfg.MaxFeatures <= 0 {
		cfg.MaxFeatures = def.MaxFeatures
	}
	if cfg.MLP.Epochs == 0 {
		cfg.MLP = def.MLP
	}
	return fitSurrogate(g, labeled, cfg), nil
}

// fitSurrogate is the one fit of f_θ1, with cfg taken as given: a zero
// MaxFeatures keeps every word. FitSurrogate and step 1 of
// FitInadequacy both train through it.
func fitSurrogate(g *tag.Graph, labeled []tag.NodeID, cfg SurrogateConfig) *Surrogate {
	enc := encode.NewTFIDFIDs(g.Dict(), g.Corpus(), cfg.MaxFeatures)
	X := make([][]float64, len(labeled))
	y := make([]int, len(labeled))
	for i, v := range labeled {
		X[i] = enc.EncodeIDs(g.Dict(), g.TextIDs(v))
		y[i] = g.Nodes[v].Label
	}
	mlpCfg := cfg.MLP
	mlpCfg.Seed = cfg.Seed
	ensemble := nn.TrainKFold(X, y, len(g.Classes), cfg.Folds, mlpCfg)
	return &Surrogate{enc: enc, ensemble: ensemble, classes: append([]string(nil), g.Classes...)}
}

// Surrogate returns the classifier FitInadequacy trained in its step 1,
// so pipelines that prune do not train f_θ1 twice. It predicts over
// the classes of the graph the measure was fitted on; the argument is
// ignored.
func (iq *Inadequacy) Surrogate(*tag.Graph) *Surrogate { return iq.sur }

// Predict returns the class name the surrogate assigns to a text.
func (s *Surrogate) Predict(text string) string {
	return s.classes[s.ensemble.Predict(s.enc.Encode(text))]
}

// PredictNode returns the surrogate's class for node v of g, encoded
// from its word IDs.
func (s *Surrogate) PredictNode(g *tag.Graph, v tag.NodeID) string {
	return s.classes[s.ensemble.Predict(s.enc.EncodeIDs(g.Dict(), g.TextIDs(v)))]
}

// Classes returns the class names the surrogate predicts over.
func (s *Surrogate) Classes() []string { return append([]string(nil), s.classes...) }
