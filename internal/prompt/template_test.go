package prompt

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/token"
	"repro/internal/xrand"
)

// refTally is Query.tally before the template table, verbatim apart
// from names: it rendered the query's template text (layout into a
// skeleton writer, which leaves node text out) and split and counted
// its fields again for every prompt.
func refTally(q *Query, bg *background) {
	bg.begin(q.Dict.Len())
	sk := refSkeleton{queryWriter{q: q}}
	layout(&sk, q.NodeType, q.EdgeRelation, q.Ranked, q.Categories, len(q.Neighbors))
	refAddText(bg, q.Dict, sk.b.String())
	for f := 0; f < q.fields(); f++ {
		for _, id := range q.text(f) {
			bg.add(q.Dict, id)
		}
	}
}

type refSkeleton struct{ queryWriter }

func (w *refSkeleton) text(int) {}

func refAddText(b *background, d *token.Dict, s string) {
	token.ForFields(s, func(w string) {
		if id, ok := d.Lookup(w); ok {
			b.add(d, id)
			return
		}
		b.words++
		b.sum += token.Count(w)
	})
}

// bgCount is how often word id occurs in bg's prompt.
func bgCount(bg *background, id int32) float64 {
	if int(id) < len(bg.counts) && bg.counts[id].mark == bg.mark {
		return bg.count(id)
	}
	return 0
}

// templateDict is a dictionary that holds, beside plain words, fields
// of the template itself, so a template field can be a dictionary
// word as a generated "the" or "paper" can.
func templateDict() *token.Dict {
	words := []string{
		"the", "paper", "Target", "paper:", "Title:", "Abstract:", "has", "following",
		"neighbors", "with", "citation", "relationships:", "relationships,", "most",
		"Neighbor", "Paper0:", "Paper3:", "{{", "}}", "Category:", "Theory", "Rule_Learning",
		"Task:", "Categories:", "[Theory,", "Rule_Learning]", "Which", "category", "does",
		"belong", "to?", "['XX'].", "outside", "Product1:", "co-purchase", "gradient.",
		"descent", "convex", "Ünïcode", "liKely", "12345", "end.", "of", "a",
	}
	for i := 0; i < 40; i++ {
		words = append(words, fmt.Sprintf("w%d", i))
	}
	return token.DictOf(words)
}

// shapeQuery returns a query over d with the given node type, edge
// relation, ranking and neighbors; each neighbor's option o picks
// whether it has an abstract (o%2) and its label (o/2: none, each
// category, or one outside the list).
func shapeQuery(d *token.Dict, rng *xrand.RNG, nodeType, edgeRelation string, ranked bool, cats []string, opts []int) Query {
	text := func() []int32 {
		ids := make([]int32, rng.Intn(12))
		for i := range ids {
			ids[i] = int32(rng.Intn(d.Len()))
		}
		return ids
	}
	labels := append([]string{""}, cats...)
	labels = append(labels, "outside label")
	q := Query{Dict: d, TargetTitle: text(), TargetAbstract: text(), Categories: cats,
		Ranked: ranked, NodeType: nodeType, EdgeRelation: edgeRelation}
	for _, o := range opts {
		nb := QueryNeighbor{Title: text(), Label: labels[o/2]}
		if o%2 == 1 {
			if nb.Abstract = text(); len(nb.Abstract) == 0 {
				nb.Abstract = []int32{0}
			}
		}
		q.Neighbors = append(q.Neighbors, nb)
	}
	return q
}

// TestTemplateTallyMatchesSkeleton pins the template table to the
// tally it replaced, refTally, and Render's exact size to the rendered
// length, on every shape of prompt: 0–5 neighbors, each neighbor with
// or without an abstract and unlabeled, labeled with each category or
// labeled outside the list, ranked or not, under the default and a
// custom node type and edge relation. With up to two neighbors every
// combination is checked, with more a sample. Each shape is counted
// with a table compiled for the run (for 5 neighbors) and with one
// compiled for its own neighbor count.
func TestTemplateTallyMatchesSkeleton(t *testing.T) {
	d := templateDict()
	rng := xrand.New(3)
	cats := []string{"Theory", "Rule_Learning", "Case Based"}
	options := 2 * (len(cats) + 2)
	shapes := 0
	for _, names := range [][2]string{{"", ""}, {"Product", "co-purchase"}, {"my  Paper", "shared citation"}} {
		run := newTemplate(d, names[0], names[1], cats, 5)
		for _, ranked := range []bool{false, true} {
			for n := 0; n <= 5; n++ {
				combos := 1
				for i := 0; i < n; i++ {
					combos *= options
				}
				own := newTemplate(d, names[0], names[1], cats, n)
				for k := 0; k < min(combos, 150); k++ {
					opts := make([]int, n)
					code := k
					if combos > 150 {
						code = rng.Intn(combos)
					}
					for i := range opts {
						opts[i], code = code%options, code/options
					}
					q := shapeQuery(d, rng, names[0], names[1], ranked, cats, opts)
					label := fmt.Sprintf("%q/%q ranked=%v options %v", names[0], names[1], ranked, opts)
					want := new(background)
					refTally(&q, want)
					for _, tmpl := range []*template{run, own} {
						got := new(background)
						q.tally(got, tmpl, false)
						if got.words != want.words || got.sum != want.sum {
							t.Fatalf("%s: tally %d words %d tokens, skeleton %d words %d tokens",
								label, got.words, got.sum, want.words, want.sum)
						}
						for id := int32(0); int(id) < d.Len(); id++ {
							if bgCount(got, id) != bgCount(want, id) {
								t.Fatalf("%s: word %q counted %v times, skeleton %v",
									label, d.Word(id), bgCount(got, id), bgCount(want, id))
							}
						}
						if size, p := q.size(tmpl, nil), q.Render(); size != len(p) {
							t.Fatalf("%s: size %d, rendered %d bytes", label, size, len(p))
						}
					}
					shapes++
				}
			}
		}
	}
	t.Logf("%d shapes tally as their skeletons do", shapes)
}

// TestCompressQuerySizesOutputExactly: on every calibration query at
// every level and budget, the compressed prompt's size as
// CompressQuery computes it before rendering is its rendered length.
func TestCompressQuerySizesOutputExactly(t *testing.T) {
	forEachCalibrationQuery(t, func(name string, v int, _ string, q *Query) {
		tmpl := templateOf(q)
		for level := 1; level <= MaxCompressLevel; level++ {
			for _, budget := range []int{0, 400, 150, 1} {
				c := Compressor{Level: level, TargetTokens: budget}
				bg := new(background)
				abs := q.tally(bg, tmpl, true)
				c.compress(q.Dict, abs, bg)
				size := q.size(tmpl, abs)
				if out, _ := c.CompressQuery(q); size != len(out) {
					t.Fatalf("%s node %d, %+v: sized %d bytes, rendered %d", name, v, c, size, len(out))
				}
			}
		}
	})
}

// TestTemplateNeverStale: a query whose node type, edge relation,
// category list or neighbor count the current template does not cover
// is counted with a template of its own, which replaces the current
// one, so a run that changes them between plans still renders and
// compresses every prompt as Build writes it. A template replaced for
// more neighbors still fits the queries with fewer.
func TestTemplateNeverStale(t *testing.T) {
	d := templateDict()
	rng := xrand.New(9)
	cats := []string{"Theory", "Rule_Learning"}
	run := newTemplate(d, "", "", cats, 3)
	for name, vary := range map[string]func(q *Query){
		"node type":     func(q *Query) { q.NodeType = "product" },
		"edge relation": func(q *Query) { q.EdgeRelation = "co-purchase" },
		"categories":    func(q *Query) { q.Categories = []string{"Theory", "Other"} },
		"dictionary":    func(q *Query) { q.Dict = templateDict() },
		"neighbors": func(q *Query) {
			q.Neighbors = append(q.Neighbors, q.Neighbors...)
		},
	} {
		q := shapeQuery(d, rng, "", "", true, cats, []int{1, 3})
		current.Store(run)
		vary(&q)
		if run.fits(&q) {
			t.Fatalf("%s: the run's template fits a query it does not cover", name)
		}
		want, wantSt := refRenderAndCount(&q)
		if got := q.Render(); got != want {
			t.Fatalf("%s: Render\n%s\nwant\n%s", name, got, want)
		}
		if got, st := (Compressor{}).CompressQuery(&q); got != want || st != wantSt {
			t.Fatalf("%s: CompressQuery %+v, want %+v", name, st, wantSt)
		}
		now := current.Load()
		if now == run || !now.fits(&q) {
			t.Fatalf("%s: the current template was not replaced by one that fits", name)
		}
		if name == "neighbors" && now.neighbors() != len(q.Neighbors) {
			t.Fatalf("neighbors: replaced for %d neighbors, want %d", now.neighbors(), len(q.Neighbors))
		}
	}
	current.Store(run)
	q := shapeQuery(d, rng, "", "", false, cats, []int{0, 2, 4, 1, 3})
	if templateOf(&q).neighbors() != 5 {
		t.Fatal("a template replaced for 5 neighbors does not hold 5")
	}
	q.Neighbors = q.Neighbors[:4]
	if now := templateOf(&q); now.neighbors() != 5 {
		t.Fatalf("a query with 4 neighbors replaced a template for 5 with one for %d", now.neighbors())
	}
}

// TestTemplateSharedAcrossGoroutines renders and compresses prompts of
// two runs at once from 8 goroutines, alternating their node types and
// edge relations, so the current template is replaced while other
// goroutines read it, and checks every prompt and count against Build.
// Run it with -race.
func TestTemplateSharedAcrossGoroutines(t *testing.T) {
	d := templateDict()
	rng := xrand.New(5)
	cats := []string{"Theory", "Rule_Learning", "Case Based"}
	type want struct {
		p  string
		st CompressStats
	}
	var queries []Query
	var wants []want
	for i := 0; i < 64; i++ {
		names := [2]string{"", ""}
		if i%2 == 1 {
			names = [2]string{"product", "co-purchase"}
		}
		opts := make([]int, i%6)
		for k := range opts {
			opts[k] = rng.Intn(2 * (len(cats) + 2))
		}
		q := shapeQuery(d, rng, names[0], names[1], i%3 == 0, cats, opts)
		p, st := refRenderAndCount(&q)
		queries, wants = append(queries, q), append(wants, want{p, st})
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i := (w + rep) % 8; i < len(queries); i += 8 {
					q := queries[i]
					p, st := (Compressor{}).CompressQuery(&q)
					if p != wants[i].p || st != wants[i].st || q.Render() != wants[i].p {
						errs <- fmt.Sprintf("query %d: prompt or count differs from Build's", i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// refRenderAndCount renders q through Build, from its words, and counts
// the prompt's tokens.
func refRenderAndCount(q *Query) (string, CompressStats) {
	r := Request{TargetTitle: q.Dict.Join(q.TargetTitle), TargetAbstract: q.Dict.Join(q.TargetAbstract),
		Categories: q.Categories, Ranked: q.Ranked, NodeType: q.NodeType, EdgeRelation: q.EdgeRelation}
	for _, nb := range q.Neighbors {
		r.Neighbors = append(r.Neighbors, Neighbor{Title: q.Dict.Join(nb.Title), Abstract: q.Dict.Join(nb.Abstract), Label: nb.Label})
	}
	p := Build(r)
	n := token.Count(p)
	return p, CompressStats{TokensBefore: n, TokensAfter: n}
}
