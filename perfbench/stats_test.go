package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var lat []time.Duration
	for i := 10; i >= 1; i-- { // unsorted on purpose
		lat = append(lat, time.Duration(i)*time.Millisecond)
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 5 * time.Millisecond}, {90, 9 * time.Millisecond}, {99, 10 * time.Millisecond}, {100, 10 * time.Millisecond}, {1, time.Millisecond}} {
		if got := percentile(lat, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if lat[0] != 10*time.Millisecond {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

func TestPercentileCountsFailuresAsMissingTheLimit(t *testing.T) {
	lat := []time.Duration{time.Millisecond, 2 * time.Millisecond, failedLatency, failedLatency}
	if got := percentile(lat, 50); got != 2*time.Millisecond {
		t.Errorf("p50 = %v, want 2ms", got)
	}
	if got := latencyMS(lat, 90); got != 1e12 {
		t.Errorf("p90 landing on a failed statement = %v ms, want 1e12", got)
	}
}

func TestBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{100, 90, 10}, {1000, 99, 10}, {110, 90, 11}, {7, 50, 3}} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, p%v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if median(nil) != 0 || mean(nil) != 0 {
		t.Error("median or mean of nothing is not 0")
	}
}

func TestAllocPerOp(t *testing.T) {
	if got := allocKBPerOp(1<<20, 3<<20, 4); got != 512 {
		t.Errorf("allocKBPerOp = %v KiB, want 512", got)
	}
	if got := allocKBPerOp(0, 1<<20, 0); got != 0 {
		t.Errorf("allocKBPerOp with no statements = %v, want 0", got)
	}
	if got := perKop(3, 1500); got != 2 {
		t.Errorf("perKop = %v, want 2", got)
	}
}

func TestOverheadPct(t *testing.T) {
	traced := []float64{110, 100, 300}
	untraced := []float64{100, 100, 200}
	if got := overheadPct(traced, untraced); got != 10 {
		t.Errorf("overheadPct = %v, want the median 10", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ns := time.Nanosecond
	spans := []Span{
		{ID: 1, Name: "request", Start: 0, End: 100 * ns},
		{ID: 2, Parent: 1, Name: "parse", Start: 0, End: 10 * ns},
		{ID: 3, Parent: 1, Name: "execute", Start: 20 * ns, End: 80 * ns},
		{ID: 4, Parent: 3, Name: "core", Start: 30 * ns, End: 70 * ns},
		// Overlapping children of execute count once; the part of a
		// child outside its parent is ignored.
		{ID: 5, Parent: 3, Name: "core", Start: 60 * ns, End: 90 * ns},
		{ID: 6, Name: "other", Start: 5 * ns, End: 15 * ns},
	}
	want := []time.Duration{30 * ns, 10 * ns, 10 * ns, 40 * ns, 30 * ns, 10 * ns}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %v, want %v", spans[i].ID, spans[i].Name, got[i], want[i])
		}
	}
	st := summarize(spans)
	if d := st.meanDur("core"); d != 35*ns {
		t.Errorf("mean core duration = %v, want 35ns", d)
	}
	if d := st.meanSelf("execute"); d != 10*ns {
		t.Errorf("mean execute self time = %v, want 10ns", d)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	var off tracer
	id := off.begin("x", 0, 1)
	off.end(id)
	if id != 0 || len(off.snapshot()) != 0 {
		t.Errorf("disabled tracer recorded span %d", id)
	}
	on := newTracer()
	root := on.begin("request", 0, 7)
	child := on.begin("parse", root, 7)
	on.end(child)
	on.end(root)
	spans := on.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Req != 7 || spans[0].End < spans[1].End {
		t.Errorf("recorded spans %+v", spans)
	}
}
