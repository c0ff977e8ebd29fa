package llm

import (
	"net/http"
	"testing"
	"time"
)

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name, header string
		want         time.Duration
	}{
		{"delta seconds", "2", 2 * time.Second},
		{"delta with spaces", "  120  ", 120 * time.Second},
		{"zero", "0", 0},
		{"negative", "-5", 0},
		{"http date future", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{"http date past", now.Add(-time.Minute).Format(http.TimeFormat), 0},
		{"empty", "", 0},
		{"garbage", "soon", 0},
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.header, now); got != c.want {
			t.Errorf("%s: parseRetryAfter(%q) = %v, want %v", c.name, c.header, got, c.want)
		}
	}
}

func TestRetryBackoffCapped(t *testing.T) {
	base := 100 * time.Millisecond
	max := 30 * time.Second
	cases := []struct {
		attempt int
		want    time.Duration
	}{
		{1, 100 * time.Millisecond},
		{2, 200 * time.Millisecond},
		{5, 1600 * time.Millisecond},
		{10, 30 * time.Second},
		// Regression: shifting/doubling by the raw attempt count used to
		// overflow int64 into negative delays past attempt ~64.
		{64, 30 * time.Second},
		{100, 30 * time.Second},
		{1 << 20, 30 * time.Second},
	}
	for _, c := range cases {
		got := retryBackoff(base, max, c.attempt)
		if got != c.want {
			t.Errorf("retryBackoff(%v, %v, %d) = %v, want %v", base, max, c.attempt, got, c.want)
		}
		if got < 0 {
			t.Fatalf("retryBackoff(%v, %v, %d) went negative: %v", base, max, c.attempt, got)
		}
	}
	if d := retryBackoff(0, max, 50); d != 0 {
		t.Errorf("zero base must yield zero delay, got %v", d)
	}
	if d := retryBackoff(time.Second, 0, 80); d != DefaultMaxRetryDelay {
		t.Errorf("zero max must default to %v, got %v", DefaultMaxRetryDelay, d)
	}
}
