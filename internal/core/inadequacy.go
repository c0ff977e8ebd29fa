package core

import (
	"fmt"
	"sort"

	"repro/internal/batch"
	"repro/internal/encode"
	"repro/internal/llm"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/prompt"
	"repro/internal/tag"
	"repro/internal/xrand"
)

// InadequacyConfig configures the text-inadequacy measure of Section
// V-A1. DefaultInadequacyConfig mirrors the paper's settings.
type InadequacyConfig struct {
	// MLP configures the surrogate classifier f_θ1.
	MLP nn.MLPConfig
	// Folds is the cross-validation fold count used to average the
	// surrogate's class probabilities (the paper uses 3).
	Folds int
	// CalibPerClass sizes the LLM-bias calibration subset V_L^c at
	// CalibPerClass × K nodes (the paper uses 10 × K).
	CalibPerClass int
	// MaxFeatures caps the BoW/TF-IDF feature dimension fed to the
	// surrogate.
	MaxFeatures int
	// Ridge regularizes the channel-merging linear regression g_θ2.
	Ridge float64
	// Seed drives fold assignment and calibration sampling.
	Seed uint64
	// Exec tunes how the calibration queries are dispatched (workers,
	// QPS, budget, disk cache, pool); the zero value is serial.
	// Calibration prompts are independent zero-shot queries, so their
	// statistics are identical for any worker count. Compress, Fallback
	// and OnResult do not apply: the calibration measures the LLM on
	// the uncompressed prompt, and a query it could not ask is dropped,
	// never guessed.
	Exec ExecConfig
}

// DefaultInadequacyConfig returns the paper's small-dataset setting: a
// linear surrogate with learning rate 0.01 and no weight decay, 3-fold
// CV, and a 10×K calibration subset.
func DefaultInadequacyConfig() InadequacyConfig {
	return InadequacyConfig{
		MLP:           nn.DefaultMLPConfig(),
		Folds:         3,
		CalibPerClass: 10,
		MaxFeatures:   512,
		Ridge:         1e-4,
		Seed:          1,
	}
}

// Inadequacy scores how insufficient a node's own text is for
// classification: D(t_i) = g_θ2(H(p_i) ‖ b_i), a proxy for H(y_i|t_i).
// Smaller scores indicate saturated nodes. Obtain one via
// FitInadequacy.
type Inadequacy struct {
	enc      *encode.Encoder
	ensemble *nn.Ensemble
	w        []float64 // per-class LLM misclassification ratios
	reg      *nn.LinReg
	// CalibrationQueries counts the LLM queries spent estimating w —
	// the strategy's (small) fixed overhead.
	CalibrationQueries int
}

// FitInadequacy builds the measure for one dataset:
//
//  1. encode all node texts (TF-IDF, capped dimension) and train the
//     surrogate classifier on the labeled set with k-fold CV;
//  2. query the LLM zero-shot on the calibration subset V_L^c to
//     estimate per-class misclassification ratios w;
//  3. fit the linear regression g_θ2 mapping (H(p_i) ‖ b_i) to the
//     LLM's observed error indicator on V_L^c.
//
// nodeType labels calibration prompts ("paper"/"product").
func FitInadequacy(g *tag.Graph, labeled []tag.NodeID, p llm.Predictor, nodeType string, cfg InadequacyConfig) (*Inadequacy, error) {
	if len(labeled) == 0 {
		return nil, fmt.Errorf("core: inadequacy needs a labeled set")
	}
	if cfg.Folds <= 0 || cfg.CalibPerClass <= 0 {
		return nil, fmt.Errorf("core: inadequacy config needs positive folds and calibration size")
	}
	k := len(g.Classes)

	// Step 1: surrogate classifier on text features.
	enc := encode.NewTFIDFIDs(g.Dict(), g.Corpus(), cfg.MaxFeatures)
	X := make([][]float64, len(labeled))
	y := make([]int, len(labeled))
	for i, v := range labeled {
		X[i] = enc.EncodeIDs(g.Dict(), g.TextIDs(v))
		y[i] = g.Nodes[v].Label
	}
	mlpCfg := cfg.MLP
	mlpCfg.Seed = cfg.Seed
	ensemble := nn.TrainKFold(X, y, k, cfg.Folds, mlpCfg)

	// Step 2: LLM category-bias calibration on V_L^c.
	rng := xrand.New(cfg.Seed).SplitString("core/calibration")
	calibSize := cfg.CalibPerClass * k
	if calibSize > len(labeled) {
		calibSize = len(labeled)
	}
	calib := make([]tag.NodeID, 0, calibSize)
	for _, i := range rng.Sample(len(labeled), calibSize) {
		calib = append(calib, labeled[i])
	}
	// One zero-shot query per calibration node provides both the
	// per-class misclassification ratios w (step 2) and the per-node
	// error indicators that supervise g_θ2 (step 3) — V_L^c is paid for
	// exactly once, as in the paper. The queries are independent, so
	// each of cfg.Exec.Workers goroutines builds and asks the next one,
	// and the tallies are applied in calibration order.
	ecfg := cfg.Exec
	ecfg.Compress, ecfg.Fallback, ecfg.OnResult = prompt.Compressor{}, nil, nil
	ex, err := NewExecutor(p, ecfg, obs.Active(nil))
	if err != nil {
		return nil, fmt.Errorf("core: bias calibration: %w", err)
	}
	outs := make([]QueryOutcome, len(calib))
	batch.FanOut(len(calib), ecfg.Workers, func(i int) {
		v := calib[i]
		q := prompt.Query{
			Dict:           g.Dict(),
			TargetTitle:    g.TitleIDs(v),
			TargetAbstract: g.AbstractIDs(v),
			Categories:     g.Classes,
			NodeType:       nodeType,
		}
		outs[i] = ex.ask(g, plannedQuery{v: v, prompt: q.Render()}, "calibration", nil)
	})
	// Failed calibration queries are dropped rather than voiding the
	// whole fit: the bias ratios and the channel regression are sample
	// estimates either way, and a permanently-failing backend prompt
	// must not take the measure down with it. Only an all-failed
	// calibration is fatal.
	wrong := make([]float64, k)
	count := make([]float64, k)
	okCalib := make([]tag.NodeID, 0, len(calib))
	errIndicator := make([]float64, 0, len(calib))
	var firstErr error
	for i, v := range calib {
		o := outs[i]
		if o.Err != nil {
			if firstErr == nil {
				firstErr = o.Err
			}
			continue
		}
		y := g.Nodes[v].Label
		count[y]++
		indicator := 0.0
		if o.Category != g.Classes[y] {
			wrong[y]++
			indicator = 1
		}
		okCalib = append(okCalib, v)
		errIndicator = append(errIndicator, indicator)
	}
	if len(okCalib) == 0 {
		return nil, fmt.Errorf("core: bias calibration: all %d queries failed; first: %w", len(calib), firstErr)
	}
	w := make([]float64, k)
	for c := range w {
		if count[c] > 0 {
			w[c] = wrong[c] / count[c]
		}
	}

	iq := &Inadequacy{enc: enc, ensemble: ensemble, w: w, CalibrationQueries: len(calib)}

	// Step 3: fit the channel-merging regression on the calibration
	// nodes that actually got an answer.
	feats := make([][]float64, len(okCalib))
	for i, v := range okCalib {
		h, b := iq.ChannelsNode(g, v)
		feats[i] = []float64{h, b}
	}
	targets := errIndicator
	reg, err := nn.FitLinReg(feats, targets, cfg.Ridge)
	if err != nil {
		return nil, fmt.Errorf("core: channel regression: %w", err)
	}
	iq.reg = reg
	return iq, nil
}

// channels computes the two inadequacy channels for a text's features
// x: the surrogate's predictive entropy H(p_i) (Eq. 8) and the bias
// channel b_i = p_i · wᵀ (Eq. 9).
func (iq *Inadequacy) channels(x []float64) (entropy, bias float64) {
	probs := iq.ensemble.Probs(x)
	h := nn.Entropy(probs)
	var b float64
	for c, pc := range probs {
		b += pc * iq.w[c]
	}
	return h, b
}

// Score returns D(t) for one text (Eq. 10). Lower means more saturated.
func (iq *Inadequacy) Score(text string) float64 {
	h, b := iq.channels(iq.enc.Encode(text))
	return iq.reg.Predict([]float64{h, b})
}

// ScoreNode returns D(t_i) for node v of g, encoded from its word IDs.
func (iq *Inadequacy) ScoreNode(g *tag.Graph, v tag.NodeID) float64 {
	h, b := iq.ChannelsNode(g, v)
	return iq.reg.Predict([]float64{h, b})
}

// ChannelsNode exposes the raw (entropy, bias) channels of node v, used
// by the ablation benchmarks.
func (iq *Inadequacy) ChannelsNode(g *tag.Graph, v tag.NodeID) (entropy, bias float64) {
	return iq.channels(iq.enc.EncodeIDs(g.Dict(), g.TextIDs(v)))
}

// Weights returns the misclassification-ratio vector w.
func (iq *Inadequacy) Weights() []float64 {
	out := make([]float64, len(iq.w))
	copy(out, iq.w)
	return out
}

// Rank orders the queries by ascending D(t_i) — saturated nodes first —
// returning the ordered IDs and a score lookup (step 6 of Algorithm 1).
func (iq *Inadequacy) Rank(g *tag.Graph, queries []tag.NodeID) ([]tag.NodeID, map[tag.NodeID]float64) {
	scores := make(map[tag.NodeID]float64, len(queries))
	order := make([]tag.NodeID, len(queries))
	copy(order, queries)
	for _, v := range queries {
		scores[v] = iq.ScoreNode(g, v)
	}
	sort.SliceStable(order, func(i, j int) bool {
		if scores[order[i]] != scores[order[j]] {
			return scores[order[i]] < scores[order[j]]
		}
		return order[i] < order[j]
	})
	return order, scores
}
