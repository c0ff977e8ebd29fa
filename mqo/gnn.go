package mqo

import (
	"repro/internal/encode"
	"repro/internal/gnn"
)

// The GNN baselines of the paper's Fig. 1 comparison: a trained
// two-layer GCN and label propagation, runnable on the same datasets
// and splits as the LLM pipeline.

// GCN is a trained two-layer graph convolutional network.
type GCN = gnn.GCN

// GCNConfig tunes GCN training (hidden width, learning rate, weight
// decay, epochs, seed).
type GCNConfig = gnn.GCNConfig

// TrainGCN trains a GCN semi-supervised on the labeled nodes over
// TF-IDF features of maxFeatures dimensions encoded from node text.
func TrainGCN(g *Graph, labeled []NodeID, maxFeatures int, cfg GCNConfig) (*GCN, error) {
	x := textFeatures(g, maxFeatures)
	return gnn.TrainGCN(g, x, labeled, cfg)
}

// SAGE is a trained two-layer GraphSAGE-mean model.
type SAGE = gnn.SAGE

// TrainSAGE trains GraphSAGE-mean semi-supervised on the labeled nodes
// over TF-IDF features of maxFeatures dimensions.
func TrainSAGE(g *Graph, labeled []NodeID, maxFeatures int, cfg GCNConfig) (*SAGE, error) {
	x := textFeatures(g, maxFeatures)
	return gnn.TrainSAGE(g, x, labeled, cfg)
}

// LabelProp diffuses the labeled nodes' labels along the normalized
// adjacency for iters rounds with restart weight alpha and returns a
// predicted label per node.
func LabelProp(g *Graph, labeled []NodeID, iters int, alpha float64) ([]int, error) {
	return gnn.LabelProp(g, labeled, iters, alpha)
}

// textFeatures encodes every node's text as TF-IDF features of at most
// maxFeatures dimensions, straight from the graph's word IDs.
func textFeatures(g *Graph, maxFeatures int) [][]float64 {
	corpus := g.Corpus()
	enc := encode.NewTFIDFIDs(g.Dict(), corpus, maxFeatures)
	x := make([][]float64, len(corpus))
	for i, doc := range corpus {
		x[i] = enc.EncodeIDs(g.Dict(), doc)
	}
	return x
}
