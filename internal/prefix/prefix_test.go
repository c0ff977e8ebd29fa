package prefix

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/prompt"
	"repro/internal/tag"
	"repro/internal/token"
)

func TestAnalyzeIdenticalPrompts(t *testing.T) {
	p := "the same prompt every time"
	st := Analyze([]string{p, p, p, p})
	if st.Prompts != 4 {
		t.Fatalf("Prompts = %d", st.Prompts)
	}
	want := token.Count(p)
	if st.UniqueTokens != want {
		t.Errorf("UniqueTokens = %d, want %d (one copy)", st.UniqueTokens, want)
	}
	if st.SharedTokens != 3*want {
		t.Errorf("SharedTokens = %d, want %d", st.SharedTokens, 3*want)
	}
	if st.SavedFraction() != 0.75 {
		t.Errorf("SavedFraction = %v, want 0.75", st.SavedFraction())
	}
}

func TestAnalyzeDisjointPrompts(t *testing.T) {
	st := Analyze([]string{"alpha beta gamma", "delta epsilon zeta"})
	if st.SharedTokens != 0 {
		t.Errorf("disjoint prompts shared %d tokens", st.SharedTokens)
	}
}

func TestAnalyzeCommonPrefix(t *testing.T) {
	st := Analyze([]string{
		"instructions: classify this document one",
		"instructions: classify this document two",
	})
	// Everything up to the divergence point is shared once.
	if st.SharedTokens < 4 {
		t.Errorf("common prefix not detected: %+v", st)
	}
	if st.SavedFraction() <= 0.3 {
		t.Errorf("SavedFraction = %v, want > 0.3", st.SavedFraction())
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	st := Analyze(nil)
	if st.TotalTokens != 0 || st.SavedFraction() != 0 {
		t.Errorf("empty batch: %+v", st)
	}
	if !strings.Contains(st.String(), "0 prompts") {
		t.Errorf("String() = %q", st.String())
	}
}

// buildBatch renders Table III prompts for n distinct targets.
func buildBatch(n int) []string {
	spec, err := tag.SpecByName("cora")
	if err != nil {
		panic(err)
	}
	g := tag.Generate(spec, 31, tag.Options{Scale: 0.1})
	out := make([]string, n)
	for i := range out {
		v := tag.NodeID(i % g.NumNodes())
		out[i] = prompt.Build(prompt.Request{
			TargetTitle:    g.Title(v),
			TargetAbstract: g.Abstract(v),
			Categories:     g.Classes,
		})
	}
	return out
}

// TestPaperTemplateSharesAlmostNothing: under the Table III layout the
// query text leads, so prefix caching recovers only the tiny "Target
// paper: Title:" boilerplate — the quantitative version of the paper's
// argument that serving-level MQO does not fit this workload.
func TestPaperTemplateSharesAlmostNothing(t *testing.T) {
	st := Analyze(buildBatch(40))
	if st.SavedFraction() > 0.15 {
		t.Errorf("paper template shared %.1f%%, expected almost nothing",
			100*st.SavedFraction())
	}
}

// TestReorderSharedFirstRecoversBoilerplate: moving the shared Task
// block to the front makes it cacheable across the batch.
func TestReorderSharedFirstRecoversBoilerplate(t *testing.T) {
	batch := buildBatch(40)
	before := Analyze(batch)
	after := Analyze(ReorderSharedFirst(batch))
	if after.SharedTokens <= before.SharedTokens {
		t.Fatalf("reordering did not increase sharing: %d -> %d",
			before.SharedTokens, after.SharedTokens)
	}
	// The newline separator carries no tokens: content is preserved.
	if after.TotalTokens != before.TotalTokens {
		t.Fatalf("reordering changed content: %d -> %d tokens",
			before.TotalTokens, after.TotalTokens)
	}
}

func TestSplitTemplate(t *testing.T) {
	p := prompt.Build(prompt.Request{
		TargetTitle: "t", TargetAbstract: "a", Categories: []string{"A"},
	})
	q, s := SplitTemplate(p)
	if s == "" || !strings.HasPrefix(s, "Task: ") {
		t.Fatalf("shared part = %q", s)
	}
	if q+s != p {
		t.Fatal("split lost content")
	}
	q2, s2 := SplitTemplate("no task block here")
	if s2 != "" || q2 != "no task block here" {
		t.Fatalf("templateless prompt mangled: %q / %q", q2, s2)
	}
}

// TestAnalyzeProperties: shared tokens never negative, never exceed
// total, and adding a duplicate prompt only increases sharing.
func TestAnalyzeProperties(t *testing.T) {
	f := func(a, b string, dup bool) bool {
		batch := []string{a, b}
		if dup {
			batch = append(batch, a)
		}
		st := Analyze(batch)
		if st.SharedTokens < 0 || st.SharedTokens > st.TotalTokens {
			return false
		}
		if dup {
			base := Analyze([]string{a, b})
			if st.SharedTokens < base.SharedTokens {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
