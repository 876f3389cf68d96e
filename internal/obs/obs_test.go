package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("root")
	child := tr.Start("child")
	grand := tr.Start("grand")
	if root.Parent() != 0 {
		t.Errorf("root parent = %d, want 0", root.Parent())
	}
	if child.Parent() != root.ID() {
		t.Errorf("child parent = %d, want %d", child.Parent(), root.ID())
	}
	if grand.Parent() != child.ID() {
		t.Errorf("grand parent = %d, want %d", grand.Parent(), child.ID())
	}
	grand.End()
	child.End()
	// A sibling started after the child ended links to the root again.
	sib := tr.Start("sibling")
	if sib.Parent() != root.ID() {
		t.Errorf("sibling parent = %d, want %d", sib.Parent(), root.ID())
	}
	sib.End()
	root.End()

	for _, name := range []string{"root", "child", "grand", "sibling"} {
		if n := tr.Count(name); n != 1 {
			t.Errorf("Count(%s) = %d, want 1", name, n)
		}
	}
	recent := tr.Recent()
	if len(recent) != 4 {
		t.Fatalf("Recent() returned %d spans, want 4", len(recent))
	}
	// Ended in order grand, child, sibling, root.
	if recent[0].Name != "grand" || recent[3].Name != "root" {
		t.Errorf("unexpected recent order: %v, %v", recent[0].Name, recent[3].Name)
	}
}

func TestSpanNestingPerGoroutine(t *testing.T) {
	tr := NewTracer()
	// Spans on different goroutines must not become parents of each other.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outer := tr.Start("outer")
			inner := tr.Start("inner")
			if inner.Parent() != outer.ID() {
				t.Errorf("inner parent = %d, want %d", inner.Parent(), outer.ID())
			}
			inner.End()
			outer.End()
		}()
	}
	wg.Wait()
	if n := tr.Count("inner"); n != 8 {
		t.Errorf("Count(inner) = %d, want 8", n)
	}
}

func TestSpanAttrs(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start("op")
	sp.SetStr("key", "value")
	sp.End()
	plain := tr.Start("plain")
	plain.End()
	recent := tr.Recent()
	if len(recent) != 2 || recent[0].Key != "key" || recent[0].Value != "value" {
		t.Fatalf("attr not recorded: %+v", recent)
	}
	if recent[1].Key != "" || recent[1].Value != "" {
		t.Fatalf("span without an attribute recorded one: %+v", recent[1])
	}
}

// TestSpanPairAllocs pins the allocations of an enabled tracer's root and
// child span pair, each with a string attribute: the attribute is stored
// inline, so only the open-span stack's own growth allocates.
func TestSpanPairAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race CI leg")
	}
	tr := NewTracer()
	dyn := strings.Repeat("op", 2) // non-constant: boxing it would allocate
	allocs := testing.AllocsPerRun(200, func() {
		root := tr.Start("root")
		root.SetStr("event", dyn)
		child := tr.Start("child")
		child.SetStr("op", dyn)
		child.End()
		root.End()
	})
	if allocs > 2 {
		t.Errorf("root+child span pair: %v allocs per run, want <= 2", allocs)
	}
}

func TestHistogramBucketing(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{time.Microsecond, 0},
		{10 * time.Microsecond, 0},
		{11 * time.Microsecond, 1},
		{100 * time.Microsecond, 1},
		{999 * time.Microsecond, 2},
		{5 * time.Millisecond, 3},
		{99 * time.Millisecond, 4},
		{time.Second, 5},
		{5 * time.Second, 6},
	}
	var h Histogram
	for _, c := range cases {
		if got := bucketIdx(c.d); got != c.want {
			t.Errorf("bucketIdx(%v) = %d, want %d", c.d, got, c.want)
		}
		h.Observe(c.d)
	}
	if h.Count() != int64(len(cases)) {
		t.Errorf("Count = %d, want %d", h.Count(), len(cases))
	}
	wantBuckets := []int64{2, 2, 1, 1, 1, 1, 1}
	for i, want := range wantBuckets {
		if got := h.Bucket(i); got != want {
			t.Errorf("Bucket(%d) = %d, want %d", i, got, want)
		}
	}
	if h.Mean() <= 0 {
		t.Errorf("Mean = %v, want > 0", h.Mean())
	}
}

func TestConcurrentCounters(t *testing.T) {
	m := NewMetrics()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := m.Counter("shared")
			h := m.Histogram("lat")
			g := m.Gauge("depth")
			for j := 0; j < perWorker; j++ {
				c.Inc()
				h.Observe(time.Duration(j) * time.Microsecond)
				g.Set(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := m.CounterValue("shared"); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := m.Histogram("lat").Count(); got != workers*perWorker {
		t.Errorf("histogram samples = %d, want %d", got, workers*perWorker)
	}
	if m.Gauge("depth").Max() != perWorker-1 {
		t.Errorf("gauge max = %d, want %d", m.Gauge("depth").Max(), perWorker-1)
	}
}

func TestGaugeHighWaterMark(t *testing.T) {
	var g Gauge
	for _, v := range []int64{3, 7, 2, 7, 1} {
		g.Set(v)
	}
	if g.Value() != 1 {
		t.Errorf("Value = %d, want 1", g.Value())
	}
	if g.Max() != 7 {
		t.Errorf("Max = %d, want 7", g.Max())
	}
}

// TestNopFastPathAllocs asserts the disabled observer's zero-allocation
// fast path: every nil-receiver operation the layers issue per hop must
// not allocate.
func TestNopFastPathAllocs(t *testing.T) {
	var (
		tr *Tracer
		m  *Metrics
		c  *Counter
		g  *Gauge
		h  *Histogram
		o  *Obs
	)
	dyn := strings.Repeat("op", 2) // non-constant: boxing it would allocate
	cases := map[string]func(){
		"tracer-span": func() {
			tr.Start("x").End()
		},
		"tracer-span-str": func() {
			sp := tr.Start("x")
			sp.SetStr("op", dyn)
			sp.End()
		},
		"counter":   func() { c.Inc(); c.Add(5) },
		"gauge":     func() { g.Set(3) },
		"histogram": func() { h.Observe(time.Millisecond) },
		"registry":  func() { _ = m.Counter("x"); _ = m.Gauge("y"); _ = m.Histogram("z") },
		"bundle":    func() { _ = o.TracerOf(); _ = o.MetricsOf() },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s: %v allocs per run on the no-op path, want 0", name, allocs)
		}
	}
}

func TestSnapshotFormatting(t *testing.T) {
	o := New()
	o.Metrics.Counter(MBrokerSteps).Add(3)
	o.Metrics.Gauge(MQueueDepth).Set(2)
	o.Metrics.Histogram(HPumpDeliver).Observe(50 * time.Microsecond)
	sp := o.Tracer.Start(SpanBrokerCall)
	sp.End()

	snap := o.Snapshot()
	for _, want := range []string{
		MBrokerSteps, MQueueDepth, HPumpDeliver, SpanBrokerCall,
		"# counters", "# spans",
	} {
		if !strings.Contains(snap, want) {
			t.Errorf("snapshot missing %q:\n%s", want, snap)
		}
	}

	// Disabled observers snapshot without panicking.
	var disabled *Obs
	if got := disabled.Snapshot(); !strings.Contains(got, "disabled") {
		t.Errorf("disabled snapshot = %q", got)
	}
}

func TestTracerRingWraps(t *testing.T) {
	tr := NewTracer()
	total := defaultRingCap + 10
	for i := 0; i < total; i++ {
		tr.Start("s").End()
	}
	if n := tr.Count("s"); n != int64(total) {
		t.Errorf("Count = %d, want %d", n, total)
	}
	if n := len(tr.Recent()); n != defaultRingCap {
		t.Errorf("Recent = %d records, want %d", n, defaultRingCap)
	}
}

func TestMetricsEachVisitsSorted(t *testing.T) {
	m := NewMetrics()
	m.Counter("b.two").Add(2)
	m.Counter("a.one").Inc()
	m.Gauge("z.depth").Set(7)
	m.Histogram("lat").Observe(time.Millisecond)

	var counters, gauges, hists []string
	m.Each(
		func(name string, c *Counter) { counters = append(counters, fmt.Sprintf("%s=%d", name, c.Value())) },
		func(name string, g *Gauge) { gauges = append(gauges, fmt.Sprintf("%s=%d", name, g.Value())) },
		func(name string, h *Histogram) { hists = append(hists, fmt.Sprintf("%s=%d", name, h.Count())) },
	)
	if got, want := strings.Join(counters, ","), "a.one=1,b.two=2"; got != want {
		t.Errorf("counters = %q, want %q", got, want)
	}
	if got, want := strings.Join(gauges, ","), "z.depth=7"; got != want {
		t.Errorf("gauges = %q, want %q", got, want)
	}
	if got, want := strings.Join(hists, ","), "lat=1"; got != want {
		t.Errorf("histograms = %q, want %q", got, want)
	}

	// A disabled registry and nil callbacks are both no-ops.
	var disabled *Metrics
	disabled.Each(func(string, *Counter) { t.Error("disabled registry visited") }, nil, nil)
	m.Each(nil, nil, nil)
}

func TestHistogramSumAndBounds(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	h.Observe(3 * time.Millisecond)
	if got := h.Sum(); got != 4*time.Millisecond {
		t.Errorf("Sum = %v, want 4ms", got)
	}
	var nilH *Histogram
	if nilH.Sum() != 0 {
		t.Error("nil histogram Sum != 0")
	}

	// Bounds are finite for all but the overflow bucket, and ascending.
	prev := 0.0
	for i := 0; i < HistBuckets-1; i++ {
		sec, ok := HistBoundSeconds(i)
		if !ok {
			t.Fatalf("bucket %d reported unbounded", i)
		}
		if sec <= prev {
			t.Fatalf("bucket bounds not ascending at %d: %g <= %g", i, sec, prev)
		}
		prev = sec
	}
	if _, ok := HistBoundSeconds(HistBuckets - 1); ok {
		t.Error("overflow bucket reported a finite bound")
	}
	if _, ok := HistBoundSeconds(-1); ok {
		t.Error("negative index reported a finite bound")
	}
}
