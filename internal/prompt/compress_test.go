package prompt

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/token"
)

// compressSample is the pinned compression input: long multi-sentence
// abstracts on the target and both neighbors, so every level has spans
// to rank and drop, plus a label-only neighbor that must survive
// untouched.
func compressSample() Request {
	return Request{
		TargetTitle: "a study of gradient methods",
		TargetAbstract: "we analyze convergence of gradient descent on convex objectives. " +
			"the analysis covers fixed and diminishing step sizes under standard smoothness assumptions. " +
			"momentum variants accelerate the worst case rate on quadratic objectives. " +
			"experiments on logistic regression benchmarks confirm the theoretical separation between the variants.",
		Neighbors: []Neighbor{
			{
				Title: "stochastic optimization basics",
				Abstract: "stochastic gradient estimates replace exact gradients with minibatch sampling. " +
					"variance reduction techniques recover the deterministic convergence rate at a fraction of the cost.",
				Label: "Theory",
			},
			{
				Title: "neural network training dynamics",
				Abstract: "loss landscapes of overparameterized networks are studied through the neural tangent kernel. " +
					"wide networks train as linear models around initialization which explains their optimization behavior.",
			},
			{Title: "survey of convex duality", Label: "Theory"},
		},
		Categories:   []string{"Theory", "Neural-Networks", "Case-Based"},
		NodeType:     "paper",
		EdgeRelation: "citation",
	}
}

// TestGoldenCompress pins the compressed bytes for every level and a
// token-budget configuration. Any diff means the span splitter, the
// density scoring or the drop order changed — each of which silently
// invalidates prompt caches in the field — so the change must be
// deliberate (regenerate with UPDATE_GOLDEN=1 go test ./internal/prompt/).
func TestGoldenCompress(t *testing.T) {
	p := Build(compressSample())
	for name, c := range map[string]Compressor{
		"c1":     {Level: 1},
		"c2":     {Level: 2},
		"c3":     {Level: 3},
		"budget": {Level: 1, TargetTokens: 160},
	} {
		t.Run(name, func(t *testing.T) {
			got := c.Compress(p)
			golden := fmt.Sprintf("testdata/golden_compress_%s.txt", name)
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", golden)
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("compressed prompt diverged from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestCompressDeterministicAcrossWorkers runs the same compressions
// from 1 and 8 concurrent goroutines, as text and as one shared Query,
// and requires bit-identical output: the compressor is a pure function,
// so worker count — like everywhere else in this repo — must never
// change bytes.
func TestCompressDeterministicAcrossWorkers(t *testing.T) {
	p := Build(compressSample())
	q := queryOf(compressSample()) // one Query and dictionary, shared
	c := Compressor{Level: 2, TargetTokens: 150}
	want := c.Compress(p)
	for _, workers := range []int{1, 8} {
		results := make([]string, workers*8)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					if i%2 == 0 {
						results[w*8+i] = c.Compress(p)
					} else {
						results[w*8+i], _ = c.CompressQuery(&q)
					}
				}
			}(w)
		}
		wg.Wait()
		for i, got := range results {
			if got != want {
				t.Fatalf("workers=%d call %d diverged:\n--- got ---\n%s\n--- want ---\n%s", workers, i, got, want)
			}
		}
	}
}

func TestCompressDisabledIsIdentity(t *testing.T) {
	p := Build(compressSample())
	if got := (Compressor{}).Compress(p); got != p {
		t.Fatal("zero compressor altered the prompt")
	}
	if (Compressor{}).Enabled() {
		t.Fatal("zero compressor reports enabled")
	}
}

func TestCompressLevelsMonotone(t *testing.T) {
	p := Build(compressSample())
	prev := token.Count(p)
	for level := 1; level <= MaxCompressLevel; level++ {
		out := Compressor{Level: level}.Compress(p)
		n := token.Count(out)
		if n > prev {
			t.Fatalf("level %d produced %d tokens, more than the previous level's %d", level, n, prev)
		}
		prev = n
	}
	if c3 := (Compressor{Level: 3}).Compress(p); token.Count(c3) >= token.Count(p) {
		t.Fatal("level 3 saved nothing on a multi-sentence prompt")
	}
}

func TestCompressBudgetMet(t *testing.T) {
	p := Build(compressSample())
	c := Compressor{TargetTokens: 160}
	out := c.Compress(p)
	if n := token.Count(out); n > 160 {
		t.Fatalf("compressed prompt is %d tokens, budget 160", n)
	}
	if _, err := Parse(out); err != nil {
		t.Fatalf("compressed prompt no longer parses: %v", err)
	}
	// An infeasible budget compresses to the structural floor — the
	// same bytes TargetTokens: 1 produces — instead of failing.
	floor := (Compressor{TargetTokens: 1}).Compress(p)
	if got := (Compressor{TargetTokens: 2}).Compress(p); got != floor {
		t.Fatal("infeasible budget did not reach the structural floor")
	}
}

func TestCompressIdempotent(t *testing.T) {
	p := Build(compressSample())
	for _, c := range []Compressor{
		{Level: 1}, {Level: 2}, {Level: 3},
		{TargetTokens: 100}, {Level: 2, TargetTokens: 1},
	} {
		once := c.Compress(p)
		if twice := c.Compress(once); twice != once {
			t.Fatalf("%+v not idempotent:\n--- once ---\n%s\n--- twice ---\n%s", c, once, twice)
		}
	}
}

// TestCompressKeepsStructure: titles, labels, categories and the task
// instruction are structural — only abstract spans may be dropped.
func TestCompressKeepsStructure(t *testing.T) {
	r := compressSample()
	p := Build(r)
	out := Compressor{Level: 3, TargetTokens: 80}.Compress(p)
	parsed, err := Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(parsed.TargetText, r.TargetTitle) {
		t.Fatalf("target title lost: %q", parsed.TargetText)
	}
	if len(parsed.NeighborTexts) != len(r.Neighbors) {
		t.Fatalf("neighbor count %d, want %d", len(parsed.NeighborTexts), len(r.Neighbors))
	}
	if parsed.NeighborLabels[0] != "Theory" || parsed.NeighborLabels[2] != "Theory" {
		t.Fatalf("neighbor labels lost: %v", parsed.NeighborLabels)
	}
	if len(parsed.Categories) != 3 {
		t.Fatalf("categories lost: %v", parsed.Categories)
	}
	if !strings.Contains(out, "Please output the most likely category") {
		t.Fatal("task instruction lost")
	}
}

// TestCompressUnparseableUnchanged: text the compressor cannot read
// back comes out byte-identical, never mangled.
func TestCompressUnparseableUnchanged(t *testing.T) {
	for _, s := range []string{"", "hello world", "Target paper: Title: x \nno abstract"} {
		if got := (Compressor{Level: 3}.Compress(s)); got != s {
			t.Fatalf("unparseable input %q altered to %q", s, got)
		}
	}
}

func TestCompressTemplateVersion(t *testing.T) {
	cases := map[string]Compressor{
		TemplateVersion: {},
		"v2+c1":         {Level: 1},
		"v2+c1 ":        {TargetTokens: 100}, // trailing space trick below
		"v2+c2":         {Level: 2},
		"v2+c3":         {Level: 3},
		"v2+c3 ":        {Level: 99}, // clamps
	}
	for want, c := range cases {
		if got := c.TemplateVersion(); got != strings.TrimSpace(want) {
			t.Errorf("%+v TemplateVersion = %q, want %q", c, got, strings.TrimSpace(want))
		}
	}
}

func TestCompressStatsAccounting(t *testing.T) {
	p := Build(compressSample())
	out, st := Compressor{Level: 2}.CompressStats(p)
	if st.TokensBefore != token.Count(p) || st.TokensAfter != token.Count(out) {
		t.Fatalf("stats %+v disagree with token.Count (%d -> %d)", st, token.Count(p), token.Count(out))
	}
	if st.Saved() <= 0 {
		t.Fatal("level 2 saved nothing on a multi-sentence prompt")
	}
	if r := st.Ratio(); r <= 0 || r >= 1 {
		t.Fatalf("ratio %v outside (0,1)", r)
	}
}

// queryOf interns a request's node text into a dictionary of its own:
// the Query whose Render is Build(r) when every text is words joined
// by single spaces.
func queryOf(r Request) Query {
	b := token.NewBuilder(0)
	q := Query{
		Dict:           b.Dict,
		TargetTitle:    b.AppendFields(nil, r.TargetTitle),
		TargetAbstract: b.AppendFields(nil, r.TargetAbstract),
		Categories:     r.Categories,
		Ranked:         r.Ranked,
		NodeType:       r.NodeType,
		EdgeRelation:   r.EdgeRelation,
	}
	for _, nb := range r.Neighbors {
		q.Neighbors = append(q.Neighbors, QueryNeighbor{
			Title:    b.AppendFields(nil, nb.Title),
			Abstract: b.AppendFields(nil, nb.Abstract),
			Label:    nb.Label,
		})
	}
	return q
}

// TestCompressQueryMatchesText: the plan path's CompressQuery equals
// CompressStats of the rendered prompt, including where node text
// repeats template words, where a neighbor or the target has no
// abstract, and where the template strings themselves could break the
// prompt's lines or empty its category list (a newline in a label,
// node type or category; a category list Parse reads as empty), which
// CompressStats leaves as it is.
func TestCompressQueryMatchesText(t *testing.T) {
	variants := map[string]func(r *Request){
		"sample":  func(*Request) {},
		"ranked":  func(r *Request) { r.Ranked = true },
		"product": func(r *Request) { r.NodeType, r.EdgeRelation = "Product", "co-purchase" },
		"template words in text": func(r *Request) {
			r.TargetAbstract = "the target paper: Abstract: Category: [Theory, belong to? " + r.TargetAbstract
			r.Neighbors[0].Abstract += " Neighbor Paper0: {{ }} Task: the the the."
		},
		"no target abstract":      func(r *Request) { r.TargetAbstract = "" },
		"one neighbor abstract":   func(r *Request) { r.Neighbors[1].Abstract = "" },
		"newline in label":        func(r *Request) { r.Neighbors[0].Label = "Theory\nAbstract: injected words" },
		"newline in node type":    func(r *Request) { r.NodeType = "pa\nper" },
		"newline in category":     func(r *Request) { r.Categories = []string{"Theory", "Neural\nNetworks"} },
		"no categories":           func(r *Request) { r.Categories = nil },
		"blank categories":        func(r *Request) { r.Categories = []string{" ", ""} },
		"comma category":          func(r *Request) { r.Categories = []string{", "} },
		"comma in one category":   func(r *Request) { r.Categories = []string{"A, B", "Theory"} },
		"label with spaces":       func(r *Request) { r.Neighbors[0].Label = "Case Based the" },
		"spaced relation":         func(r *Request) { r.EdgeRelation = "shared  citation" },
		"no neighbors":            func(r *Request) { r.Neighbors = nil },
		"category is a text word": func(r *Request) { r.Categories = append(r.Categories, "gradient") },
	}
	for name, vary := range variants {
		r := compressSample()
		vary(&r)
		q := queryOf(r)
		p := Build(r)
		if got := q.Render(); got != p {
			t.Fatalf("%s: Render differs from Build\n--- render ---\n%s\n--- build ---\n%s", name, got, p)
		}
		for level := 0; level <= MaxCompressLevel; level++ {
			for _, budget := range []int{0, 150, 1} {
				c := Compressor{Level: level, TargetTokens: budget}
				want, wantSt := c.CompressStats(p)
				got, gotSt := c.CompressQuery(&q)
				if got != want || gotSt != wantSt {
					t.Fatalf("%s, %+v: stats %+v, want %+v\n--- got ---\n%s\n--- want ---\n%s",
						name, c, gotSt, wantSt, got, want)
				}
			}
		}
	}
}
