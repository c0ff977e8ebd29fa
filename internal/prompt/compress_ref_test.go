package prompt

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/infotheory"
	"repro/internal/tag"
	"repro/internal/token"
)

// TestCompressMatchesReference pins the compressor to the reference
// below — the earlier compressor, which re-split the prompt for every
// stage and re-counted its tokens with token.Count — on generated
// prompts of every calibration dataset: every node, 1–5 neighbors with
// abstracts (some labeled), every level, and token budgets from none
// to below the structural floor. Output bytes and both token totals
// must match, both for the prompt text (CompressStats) and for the
// plan path's Query of the graph's word IDs (CompressQuery), whose
// Render must be the prompt text.
func TestCompressMatchesReference(t *testing.T) {
	cases := 0
	for _, name := range []string{"cora", "citeseer", "pubmed"} {
		spec, err := tag.SmallSpec(name, 100)
		if err != nil {
			t.Fatal(err)
		}
		g := tag.Generate(spec, 5, tag.Options{})
		for v := 0; v < g.NumNodes(); v++ {
			id := tag.NodeID(v)
			req := Request{
				TargetTitle:    g.Title(id),
				TargetAbstract: g.Abstract(id),
				Categories:     g.Classes,
				Ranked:         v%2 == 0,
			}
			q := Query{
				Dict:           g.Dict(),
				TargetTitle:    g.TitleIDs(id),
				TargetAbstract: g.AbstractIDs(id),
				Categories:     g.Classes,
				Ranked:         v%2 == 0,
			}
			for k := 1; k <= 1+v%5; k++ {
				u := tag.NodeID((v + 7*k) % g.NumNodes())
				nb := Neighbor{Title: g.Title(u), Abstract: g.Abstract(u)}
				qn := QueryNeighbor{Title: g.TitleIDs(u), Abstract: g.AbstractIDs(u)}
				if (int(u)+k)%3 == 0 {
					nb.Label = g.Classes[g.Nodes[u].Label]
					qn.Label = nb.Label
				}
				req.Neighbors = append(req.Neighbors, nb)
				q.Neighbors = append(q.Neighbors, qn)
			}
			p := Build(req)
			if r := q.Render(); r != p {
				t.Fatalf("%s node %d: Render differs from Build\n--- render ---\n%s\n--- build ---\n%s", name, v, r, p)
			}
			for level := 0; level <= MaxCompressLevel; level++ {
				for _, budget := range []int{0, 400, 150, 1} {
					c := Compressor{Level: level, TargetTokens: budget}
					want, wantSt := refCompressStats(c, p)
					got, gotSt := c.CompressStats(p)
					if got != want || gotSt != wantSt {
						t.Fatalf("%s node %d, %+v: stats %+v, want %+v\n--- got ---\n%s\n--- want ---\n%s",
							name, v, c, gotSt, wantSt, got, want)
					}
					got, gotSt = c.CompressQuery(&q)
					if got != want || gotSt != wantSt {
						t.Fatalf("%s node %d, %+v, query: stats %+v, want %+v\n--- got ---\n%s\n--- want ---\n%s",
							name, v, c, gotSt, wantSt, got, want)
					}
					cases++
				}
			}
		}
	}
	t.Logf("%d compressions match the reference", cases)
}

// refCompressStats is the reference compressor, kept verbatim apart
// from names.
func refCompressStats(c Compressor, promptText string) (string, CompressStats) {
	before := token.Count(promptText)
	st := CompressStats{TokensBefore: before, TokensAfter: before}
	if !c.Enabled() {
		return promptText, st
	}
	if _, err := Parse(promptText); err != nil {
		return promptText, st
	}
	abs := refFindAbstracts(promptText)
	if len(abs) == 0 {
		return promptText, st
	}
	refScoreSpans(promptText, abs)
	spanCap := levelSpanCap(c.level())
	for i := range abs {
		abs[i].keepTop(spanCap)
	}
	if c.TargetTokens > 0 {
		total := token.Count(refRender(promptText, abs))
		if total > c.TargetTokens {
			prefixTokens := token.Count("Abstract:")
			for _, d := range refDroppable(abs) {
				if total <= c.TargetTokens {
					break
				}
				a := &abs[d.abs]
				a.kept[d.span] = false
				total -= token.Count(a.spans[d.span].text)
				if !a.target && a.keptCount() == 0 {
					total -= prefixTokens
				}
			}
		}
	}
	out := refRender(promptText, abs)
	st.TokensAfter = token.Count(out)
	return out, st
}

type refSpan struct {
	text  string
	words []string
	score float64
}

type refAbstract struct {
	line   int
	target bool
	spans  []refSpan
	kept   []bool
}

func (a *refAbstract) keepTop(spanCap int) {
	if spanCap < 1 {
		spanCap = 1
	}
	if len(a.spans) <= spanCap {
		return
	}
	idx := make([]int, len(a.spans))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool {
		return a.spans[idx[i]].score > a.spans[idx[j]].score
	})
	for _, i := range idx[spanCap:] {
		a.kept[i] = false
	}
}

func (a *refAbstract) keptCount() int {
	n := 0
	for _, k := range a.kept {
		if k {
			n++
		}
	}
	return n
}

func refDroppable(abs []refAbstract) []dropRef {
	var out []dropRef
	for ai := range abs {
		floor := 0
		if abs[ai].target {
			floor = 1
		}
		kept := abs[ai].keptCount()
		for si := len(abs[ai].spans) - 1; si >= 0; si-- {
			if !abs[ai].kept[si] {
				continue
			}
			if kept <= floor {
				break
			}
			kept--
			out = append(out, dropRef{abs: ai, span: si, score: abs[ai].spans[si].score})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].score < out[j].score })
	return out
}

func refFindAbstracts(promptText string) []refAbstract {
	lines := strings.Split(promptText, "\n")
	var out []refAbstract
	add := func(i int, target bool) {
		body := strings.TrimPrefix(lines[i], "Abstract: ")
		spans := refSplitSpans(body)
		if len(spans) == 0 {
			return
		}
		a := refAbstract{line: i, target: target, spans: spans, kept: make([]bool, len(spans))}
		for j := range a.kept {
			a.kept[j] = true
		}
		out = append(out, a)
	}
	if len(lines) > 1 && strings.HasPrefix(lines[1], "Abstract: ") {
		add(1, true)
	}
	inNeighbor := false
	for i := 2; i < len(lines); i++ {
		switch {
		case strings.HasPrefix(lines[i], "Neighbor "):
			inNeighbor = true
		case lines[i] == "}}":
			inNeighbor = false
		case inNeighbor && strings.HasPrefix(lines[i], "Abstract: "):
			add(i, false)
		}
	}
	return out
}

func refSplitSpans(text string) []refSpan {
	words := strings.Fields(text)
	var out []refSpan
	start := 0
	flush := func(end int) {
		for s := start; s < end; s += spanWords {
			e := s + spanWords
			if e > end {
				e = end
			}
			out = append(out, refSpan{text: strings.Join(words[s:e], " "), words: words[s:e:e]})
		}
		start = end
	}
	for i, w := range words {
		switch w[len(w)-1] {
		case '.', '!', '?':
			flush(i + 1)
		}
	}
	flush(len(words))
	return out
}

func refScoreSpans(promptText string, abs []refAbstract) {
	words := strings.Fields(promptText)
	background := make(map[string]float64, len(words))
	for _, w := range words {
		background[w]++
	}
	backgroundTotal := float64(len(words))
	var distinct []string
	var p, q []float64
	for ai := range abs {
		for si := range abs[ai].spans {
			distinct, p, q = distinct[:0], p[:0], q[:0]
			rest := backgroundTotal
			for _, w := range abs[ai].spans[si].words {
				k := slices.Index(distinct, w)
				if k < 0 {
					k = len(distinct)
					distinct = append(distinct, w)
					p = append(p, 0)
					q = append(q, background[w])
					rest -= background[w]
				}
				p[k]++
			}
			p = append(p, 0)
			q = append(q, rest)
			abs[ai].spans[si].score = infotheory.Entropy(p) +
				infotheory.KLDivergence(p, q)
		}
	}
}

func refRender(promptText string, abs []refAbstract) string {
	lines := strings.Split(promptText, "\n")
	drop := map[int]bool{}
	for ai := range abs {
		a := &abs[ai]
		if a.keptCount() == len(a.spans) {
			continue
		}
		var kept []string
		for si, k := range a.kept {
			if k {
				kept = append(kept, a.spans[si].text)
			}
		}
		if len(kept) == 0 && !a.target {
			drop[a.line] = true
			continue
		}
		lines[a.line] = "Abstract: " + strings.Join(kept, " ") + " "
	}
	if len(drop) == 0 {
		return strings.Join(lines, "\n")
	}
	out := make([]string, 0, len(lines))
	for i, l := range lines {
		if !drop[i] {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
