package llm

import (
	"context"
	"errors"
	"testing"
	"time"
)

// parkingCtxPredictor hands each call's context to got and parks until
// that context ends.
type parkingCtxPredictor struct{ got chan context.Context }

func (p *parkingCtxPredictor) Name() string { return "parking" }
func (p *parkingCtxPredictor) Query(string) (Response, error) {
	panic("Ask called Query on a ContextPredictor")
}
func (p *parkingCtxPredictor) QueryContext(ctx context.Context, _ string) (Response, error) {
	p.got <- ctx
	<-ctx.Done()
	return Response{}, ctx.Err()
}

// queryOnlyPredictor has no QueryContext; its Query answers once
// release is closed.
type queryOnlyPredictor struct{ entered, release chan struct{} }

func (p *queryOnlyPredictor) Name() string { return "query-only" }
func (p *queryOnlyPredictor) Query(string) (Response, error) {
	close(p.entered)
	<-p.release
	return Response{Category: "A"}, nil
}

func TestAskContextPredictorIsCanceledThroughCallerContext(t *testing.T) {
	type key struct{}
	ctx, cancel := context.WithCancel(context.WithValue(context.Background(), key{}, "caller"))
	defer cancel()
	p := &parkingCtxPredictor{got: make(chan context.Context, 1)}
	errc := make(chan error, 1)
	go func() {
		_, err := Ask(ctx, p, "prompt")
		errc <- err
	}()
	if got := <-p.got; got.Value(key{}) != "caller" {
		t.Fatal("QueryContext did not receive the caller's context")
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Ask = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceling the caller's context did not end the call")
	}
}

func TestAskRunsQueryOnlyPredictorToCompletion(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := &queryOnlyPredictor{entered: make(chan struct{}), release: make(chan struct{})}
	type result struct {
		resp Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := Ask(ctx, p, "prompt")
		done <- result{resp, err}
	}()
	<-p.entered
	cancel()
	select {
	case r := <-done:
		t.Fatalf("Ask returned %+v once ctx ended, before Query finished", r)
	case <-time.After(50 * time.Millisecond):
	}
	close(p.release)
	if r := <-done; r.err != nil || r.resp.Category != "A" {
		t.Fatalf("Ask = %+v, want Query's answer", r)
	}
}
