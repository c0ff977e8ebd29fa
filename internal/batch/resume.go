package batch

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/llm"
	"repro/internal/prompt"
)

// Checkpoint/resume: the JSONL audit log doubles as a durable record of
// which queries were already paid for. After a crash (or a budget
// exhaustion) mid-batch, ReplayLog recovers the completed outcomes and
// FilterDone trims the request list so the re-run only bills the
// remainder.

// ReplayLog parses a JSONL audit log produced by Executor and returns
// the successful outcomes keyed by request ID. Lines recording errors
// or budget skips are ignored (those queries must re-run); later lines
// for an ID supersede earlier ones. Malformed lines abort with an
// error rather than silently dropping paid work.
func ReplayLog(r io.Reader) (map[string]llm.Response, error) {
	out := make(map[string]llm.Response)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var l logLine
		if err := json.Unmarshal(raw, &l); err != nil {
			return nil, fmt.Errorf("batch: log line %d unparseable: %w", lineNo, err)
		}
		if l.ID == "" {
			return nil, fmt.Errorf("batch: log line %d has no request ID", lineNo)
		}
		if l.Error != "" {
			delete(out, l.ID) // a later failure supersedes nothing, but be safe
			continue
		}
		if l.InputTokens < 0 || l.OutputTokens < 0 {
			return nil, fmt.Errorf("batch: log line %d has negative token counts", lineNo)
		}
		out[l.ID] = llm.Response{
			Text:         prompt.FormatResponse(l.Category),
			Category:     l.Category,
			InputTokens:  l.InputTokens,
			OutputTokens: l.OutputTokens,
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("batch: reading log: %w", err)
	}
	return out, nil
}

// FilterDone splits requests into the ones still to run and the
// already-completed outcomes recovered from a log replay.
func FilterDone(reqs []Request, done map[string]llm.Response) (todo []Request, recovered map[string]Outcome) {
	recovered = make(map[string]Outcome)
	for _, r := range reqs {
		if resp, ok := done[r.ID]; ok {
			recovered[r.ID] = Outcome{Response: resp, Cached: true}
			continue
		}
		todo = append(todo, r)
	}
	return todo, recovered
}
