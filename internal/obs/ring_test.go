package obs

import (
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestRing(t *testing.T) {
	var r ring[int]
	r.reset(3)
	if r.items() != nil || r.len() != 0 || r.buf != nil {
		t.Fatalf("new ring holds %v (buf %v), want nothing allocated", r.items(), r.buf)
	}
	r.push(1)
	r.push(2)
	if got := r.items(); !slices.Equal(got, []int{1, 2}) || r.len() != 2 {
		t.Fatalf("partial fill = %v, want [1 2]", got)
	}
	for v := 3; v <= 7; v++ {
		r.push(v)
	}
	if got := r.items(); !slices.Equal(got, []int{5, 6, 7}) || r.len() != 3 {
		t.Fatalf("after wrapping = %v, want [5 6 7] (oldest first)", got)
	}
	// items is a copy: writing to it leaves the ring alone.
	r.items()[0] = 99
	if got := r.items(); got[0] != 5 {
		t.Fatalf("items aliased the buffer: %v", got)
	}

	r.reset(2)
	if r.items() != nil || r.len() != 0 {
		t.Fatalf("reset kept %v", r.items())
	}
	r.push(8)
	r.push(9)
	r.push(10)
	if got := r.items(); !slices.Equal(got, []int{9, 10}) {
		t.Fatalf("after reset to 2 = %v, want [9 10]", got)
	}

	for _, size := range []int{0, -4} {
		r.reset(size)
		r.push(1)
		r.push(2)
		if got := r.items(); !slices.Equal(got, []int{2}) {
			t.Fatalf("capacity %d holds %v, want just [2]", size, got)
		}
	}
}

// TestSLOWindowPastCap: past maxSLOSamples, Samples and Violations
// stay exact, Retained stays capped, and the quantile covers only the
// most recent maxSLOSamples samples.
func TestSLOWindowPastCap(t *testing.T) {
	r := NewRegistry()
	r.SetSLO(SLO{Objective: 100 * time.Millisecond, Percentile: 0.999})
	for i := 0; i < maxSLOSamples; i++ {
		feedSLO(r, 200*time.Millisecond)
	}
	rep := r.SLOReport()
	if rep.Samples != maxSLOSamples || rep.Retained != maxSLOSamples || rep.ObservedMS != 200 || rep.Pass {
		t.Fatalf("full window of slow samples: %+v", rep)
	}

	// 100 slow samples stay in the window: the nearest rank
	// ⌈0.999·16384⌉ = 16368 lies past the 16284 fast ones.
	fast := maxSLOSamples - 100
	for i := 0; i < fast; i++ {
		feedSLO(r, time.Millisecond)
	}
	rep = r.SLOReport()
	if rep.Samples != maxSLOSamples+fast || rep.Retained != maxSLOSamples {
		t.Fatalf("samples %d retained %d, want %d and %d", rep.Samples, rep.Retained, maxSLOSamples+fast, maxSLOSamples)
	}
	if rep.ObservedMS != 200 || rep.Pass || rep.Violations != maxSLOSamples {
		t.Fatalf("window with 100 slow samples left: %+v", rep)
	}

	// 85 more fast samples leave 15 slow ones, all above the rank.
	for i := 0; i < 85; i++ {
		feedSLO(r, time.Millisecond)
	}
	rep = r.SLOReport()
	if rep.ObservedMS != 1 || !rep.Pass || rep.Retained != maxSLOSamples || rep.Violations != maxSLOSamples {
		t.Fatalf("window with 15 slow samples left: %+v", rep)
	}
	if rep.Samples != 2*maxSLOSamples-15 {
		t.Fatalf("samples = %d, want %d", rep.Samples, 2*maxSLOSamples-15)
	}
}

// TestRingOwnersConcurrent drives the three rings from 8 goroutines:
// spans ending, ledgers closing and SLO samples recording, against
// readers of every ring and capacity resets in between. Each ring is
// guarded only by its owner's mutex, so -race finds a missing lock.
func TestRingOwnersConcurrent(t *testing.T) {
	r := NewRegistry()
	r.SetSLO(SLO{Objective: time.Millisecond})
	const writers, perWriter = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				sp := r.StartSpan("q", "w", strconv.Itoa(w))
				led := NewLedger(r, sp.TraceID(), "q")
				led.Charge(StagePredict, time.Microsecond, 3, true)
				d := sp.End()
				led.Close(d)
				RecordSLO(r, time.Duration(i)*time.Microsecond)
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch g {
				case 0:
					if trs := r.Traces(); len(trs) > 0 {
						r.QueryTraceOf(trs[len(trs)-1].TraceID)
					}
				case 1:
					_ = r.Ledgers()
					_ = r.TraceReport()
				case 2:
					_ = r.SLOReport()
				}
			}
		}(g)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for n := 1; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			r.SetTraceCapacity(n % 64)
			r.SetLedgerCapacity(n % 32)
			time.Sleep(50 * time.Microsecond)
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	r.SetTraceCapacity(8)
	r.SetLedgerCapacity(4)
	for i := 0; i < 10; i++ {
		sp := r.StartSpan("tail")
		NewLedger(r, sp.TraceID(), "tail").Close(sp.End())
	}
	if got := len(r.Traces()); got != 8 {
		t.Fatalf("%d spans retained, want 8", got)
	}
	if got := len(r.Ledgers()); got != 4 {
		t.Fatalf("%d ledgers retained, want 4", got)
	}
	rep := r.SLOReport()
	if rep.Samples != writers*perWriter || rep.Retained != writers*perWriter {
		t.Fatalf("SLO samples %d retained %d, want %d each", rep.Samples, rep.Retained, writers*perWriter)
	}
}
