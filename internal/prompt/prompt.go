// Package prompt builds and parses the query prompts of the "LLMs as
// predictors" paradigm.
//
// Build renders the paper's Table III templates: the target node's
// title and abstract, optional neighbor entries (title, optional
// abstract, and a Category line when the neighbor's label — true or
// pseudo — is known), the category list, and the task instruction.
// Parse is the inverse; it exists because the simulated LLM is a black
// box that receives only the final prompt string, so everything it
// knows about a query must be recovered from the text itself, exactly
// as a real LLM would read it.
package prompt

import (
	"fmt"
	"strings"
)

// TemplateVersion identifies the prompt-template generation. It is
// part of every persistent prompt-cache namespace: cached answers are
// only valid for the exact template that produced the prompt, so bump
// this string whenever Build's rendering changes in any way.
const TemplateVersion = "v1"

// Neighbor is one neighbor entry in a prompt.
type Neighbor struct {
	Title    string
	Abstract string // included only when non-empty
	Label    string // category name; empty if unknown
}

// Request describes a node-classification query to render.
type Request struct {
	TargetTitle    string
	TargetAbstract string
	Neighbors      []Neighbor
	Categories     []string
	// Ranked adds SNS's "from most related to least related" phrasing.
	Ranked bool
	// NodeType is "paper" or "product"; EdgeRelation is e.g. "citation"
	// or "co-purchase".
	NodeType     string
	EdgeRelation string
}

func (r Request) nodeType() string {
	if r.NodeType == "" {
		return "paper"
	}
	return strings.ToLower(r.NodeType)
}

func (r Request) edgeRelation() string {
	if r.EdgeRelation == "" {
		return "citation"
	}
	return strings.ToLower(r.EdgeRelation)
}

// asciiTitle upper-cases the first byte of an ASCII word ("paper" ->
// "Paper").
func asciiTitle(s string) string {
	if s == "" {
		return s
	}
	c := s[0]
	if c >= 'a' && c <= 'z' {
		return string(c-'a'+'A') + s[1:]
	}
	return s
}

// Build renders the prompt following Table III of the paper.
func Build(r Request) string {
	var b strings.Builder
	nt := r.nodeType()
	fmt.Fprintf(&b, "Target %s: Title: %s \nAbstract: %s \n", nt, r.TargetTitle, r.TargetAbstract)
	if len(r.Neighbors) > 0 {
		ranked := ""
		if r.Ranked {
			ranked = ", from most related to least related"
		}
		fmt.Fprintf(&b, "\nTarget %s has the following important neighbors with %s relationships%s:\n",
			nt, r.edgeRelation(), ranked)
		title := asciiTitle(nt)
		for i, nb := range r.Neighbors {
			fmt.Fprintf(&b, "Neighbor %s%d: {{\nTitle: %s \n", title, i, nb.Title)
			if nb.Abstract != "" {
				fmt.Fprintf(&b, "Abstract: %s \n", nb.Abstract)
			}
			if nb.Label != "" {
				fmt.Fprintf(&b, "Category: %s \n", nb.Label)
			}
			b.WriteString("}}\n")
		}
	}
	fmt.Fprintf(&b, "Task: \nCategories: \n[%s]\n", strings.Join(r.Categories, ", "))
	fmt.Fprintf(&b, "Which category does the target %s belong to?\n", nt)
	b.WriteString("Please output the most likely category as a Python list: Category: ['XX'].")
	return b.String()
}

// Parsed is the structured view a reader recovers from a prompt.
type Parsed struct {
	TargetText    string // title + abstract
	NeighborTexts []string
	// NeighborLabels[i] is the Category line of neighbor i ("" if absent).
	NeighborLabels []string
	Categories     []string
	Ranked         bool
}

// Parse recovers the structured query from a prompt built by Build.
func Parse(p string) (Parsed, error) {
	return parseLines(strings.Split(p, "\n"))
}

// parseLines is Parse over a prompt already split into lines, so the
// compressor validates, locates abstracts and renders from one split.
func parseLines(lines []string) (Parsed, error) {
	var out Parsed
	i := 0

	// Target line: "Target <type>: Title: ... "
	if i >= len(lines) || !strings.HasPrefix(lines[i], "Target ") {
		return out, fmt.Errorf("prompt: missing target line")
	}
	first := lines[i]
	ti := strings.Index(first, "Title: ")
	if ti < 0 {
		return out, fmt.Errorf("prompt: target line missing title")
	}
	targetTitle := strings.TrimSpace(first[ti+len("Title: "):])
	i++
	if i >= len(lines) || !strings.HasPrefix(lines[i], "Abstract: ") {
		return out, fmt.Errorf("prompt: missing target abstract")
	}
	targetAbstract := strings.TrimSpace(strings.TrimPrefix(lines[i], "Abstract: "))
	out.TargetText = strings.TrimSpace(targetTitle + " " + targetAbstract)
	i++

	// Optional neighbor block.
	for i < len(lines) {
		line := lines[i]
		switch {
		case line == "":
			i++
		case strings.HasPrefix(line, "Target ") && strings.Contains(line, "neighbors"):
			out.Ranked = strings.Contains(line, "from most related to least related")
			i++
		case strings.HasPrefix(line, "Neighbor "):
			// Entry spans until the closing "}}".
			i++
			var text []string
			label := ""
			for i < len(lines) && lines[i] != "}}" {
				l := lines[i]
				switch {
				case strings.HasPrefix(l, "Title: "):
					text = append(text, strings.TrimSpace(strings.TrimPrefix(l, "Title: ")))
				case strings.HasPrefix(l, "Abstract: "):
					text = append(text, strings.TrimSpace(strings.TrimPrefix(l, "Abstract: ")))
				case strings.HasPrefix(l, "Category: "):
					label = strings.TrimSpace(strings.TrimPrefix(l, "Category: "))
				}
				i++
			}
			if i >= len(lines) {
				return out, fmt.Errorf("prompt: unterminated neighbor entry")
			}
			i++ // consume "}}"
			out.NeighborTexts = append(out.NeighborTexts, strings.Join(text, " "))
			out.NeighborLabels = append(out.NeighborLabels, label)
		case strings.HasPrefix(line, "Task:"):
			i++
			goto task
		default:
			return out, fmt.Errorf("prompt: unexpected line %q", line)
		}
	}
	return out, fmt.Errorf("prompt: missing task section")

task:
	if i >= len(lines) || !strings.HasPrefix(lines[i], "Categories:") {
		return out, fmt.Errorf("prompt: missing categories header")
	}
	i++
	if i >= len(lines) || !strings.HasPrefix(lines[i], "[") || !strings.HasSuffix(lines[i], "]") {
		return out, fmt.Errorf("prompt: missing category list")
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(lines[i], "["), "]")
	for _, c := range strings.Split(inner, ", ") {
		c = strings.TrimSpace(c)
		if c != "" {
			out.Categories = append(out.Categories, c)
		}
	}
	if len(out.Categories) == 0 {
		return out, fmt.Errorf("prompt: empty category list")
	}
	return out, nil
}

// FormatResponse renders an LLM answer in the format the templates
// request: Category: ['XX'].
func FormatResponse(category string) string {
	return fmt.Sprintf("Category: ['%s']", category)
}

// ParseResponse extracts the category from a response in the requested
// format. It tolerates surrounding text, matching how deployments parse
// real LLM output.
func ParseResponse(s string) (string, error) {
	start := strings.Index(s, "['")
	if start < 0 {
		return "", fmt.Errorf("prompt: response %q has no category list", s)
	}
	rest := s[start+2:]
	end := strings.Index(rest, "']")
	if end < 0 {
		return "", fmt.Errorf("prompt: response %q has unterminated category list", s)
	}
	c := strings.TrimSpace(rest[:end])
	if c == "" {
		return "", fmt.Errorf("prompt: response %q has empty category", s)
	}
	return c, nil
}
