// Package obs is the engine's zero-dependency observability layer: trace
// spans around every cross-layer hop (UI submit → Synthesis → Controller
// dispatch → Broker step → resource adapter execute, plus the runtime event
// pump and the autonomic monitor loop) and process-wide metrics (atomic
// counters, gauges and fixed-bucket latency histograms).
//
// The package is designed so a disabled observer costs the hot path only a
// nil check: nil *Tracer, *Metrics, *Counter, *Gauge and *Histogram are all
// valid receivers whose methods return immediately, and Span is a small
// value type, so the no-op path performs zero allocations. Layers resolve
// their counters once at construction and call them unconditionally.
package obs

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical metric names. Layers register these against the process
// metrics; the snapshot prints them sorted, so related names share a
// dotted prefix.
const (
	MUISubmits          = "ui.submits"
	MSynthesisSubmits   = "synthesis.submits"
	MSynthesisEvents    = "synthesis.events"
	MScriptsExecuted    = "controller.scripts"
	MControllerCommands = "controller.commands"
	MControllerEvents   = "controller.events"
	MPolicyDenials      = "controller.policy.denials"
	MBrokerCalls        = "broker.calls"
	MBrokerSteps        = "broker.steps"
	MBrokerEvents       = "broker.events"
	MEUSteps            = "eu.steps"
	MEventsPosted       = "pump.events.posted"
	MEventsDropped      = "pump.events.dropped"
	MEventsDelivered    = "pump.events.delivered"
	MQueueDepth         = "pump.queue.depth"
	MMonitorTicks       = "monitor.ticks"
	HPumpDeliver        = "pump.deliver.latency"

	// Fault-injection and resilience metrics (package fault and the
	// degraded-mode paths consuming it).
	MFaultInjected    = "fault.injected"
	MRetryAttempts    = "retry.attempts"
	MRetryExhausted   = "retry.exhausted"
	MBreakerOpen      = "breaker.open"
	MBreakerShorted   = "breaker.shorted"
	MProbeFailures    = "monitor.probe.failures"
	MEvalFailures     = "monitor.eval.failures"
	MDeliverFailures  = "pump.deliver.failures"
	MRemoteRedials    = "remote.redials"
	MRemoteTimeouts   = "remote.timeouts"
	MRemoteBadFrames  = "remote.frames.bad"
	MRemoteSlowEvents = "remote.events.slowdrop"
	MRemoteVersionBad = "remote.version.mismatch"

	// Recovery metrics (the self-healing layer: panic isolation and the
	// dead-letter queue).
	MEventsRejected     = "pump.events.rejected"
	MEventsDeadLettered = "pump.events.deadlettered"
	MDLQDepth           = "dlq.depth"
	MDLQRedelivered     = "dlq.redelivered"
	MDLQRequeued        = "dlq.requeued"
	MDLQLost            = "dlq.lost"
	MPanicsRecovered    = "panic.recovered"

	MBrokerReentrantDropped     = "broker.events.reentrant.dropped"
	MControllerReentrantDropped = "controller.events.reentrant.dropped"

	// Conformance-validation metrics (the metamodel compile fast path and
	// the content-hash validation cache).
	MValidateFast         = "validate.fast"
	MValidateInterpreted  = "validate.interpreted"
	MValidateDelta        = "validate.delta"
	MValidateCacheHits    = "validate.cache.hits"
	MValidateCacheMisses  = "validate.cache.misses"
	MValidateCacheEvicted = "validate.cache.evictions"
	MMetamodelCompiles    = "metamodel.compiles"
	MMetamodelCompileErr  = "metamodel.compile.failures"
	HMetamodelCompile     = "metamodel.compile.latency"

	// Multi-tenant platform-server metrics (internal/serve).
	MServeTenantsResident = "serve.tenants.resident"
	MServeTenantsParked   = "serve.tenants.parked"
	MServeCreated         = "serve.tenants.created"
	MServeEvictions       = "serve.evictions"
	MServeRehydrations    = "serve.rehydrations"
	MServeThrottled       = "serve.events.throttled"

	// Cluster metrics (internal/cluster: membership, cross-node event
	// forwarding and live tenant migration).
	MClusterPeersLive        = "cluster.peers.live"
	MClusterHeartbeatsSent   = "cluster.heartbeats.sent"
	MClusterHeartbeatsRecv   = "cluster.heartbeats.received"
	MClusterSuspicions       = "cluster.suspicions"
	MClusterDeaths           = "cluster.deaths"
	MClusterForwardsSent     = "cluster.forwards.sent"
	MClusterForwardsRecv     = "cluster.forwards.received"
	MClusterForwardsDeduped  = "cluster.forwards.deduped"
	MClusterForwardsResent   = "cluster.forwards.resent"
	MClusterForwardsQueued   = "cluster.forwards.queued"
	MClusterForwardsParked   = "cluster.forwards.deadlettered"
	MClusterForwardsRejected = "cluster.forwards.rejected"
	MClusterMigrationsOut    = "cluster.migrations.out"
	MClusterMigrationsIn     = "cluster.migrations.in"
	MClusterAdoptions        = "cluster.adoptions"
	MClusterReplicasHeld     = "cluster.replicas.held"

	// Auto-provisioned HTTP API metrics (internal/api).
	MAPIRequests       = "api.requests"
	MAPIProblems       = "api.problems"
	MAPIWrites         = "api.writes"
	MAPIWritesRejected = "api.writes.rejected"
	MAPIEventsAccepted = "api.events.accepted"
	MAPIRedirects      = "api.redirects"
	MAPIWatchers       = "api.watchers"
	MAPIWatchDelivered = "api.watch.delivered"
	MAPIWatchLagged    = "api.watch.lagged"
	HAPIRequest        = "api.request.latency"
)

// ShardMetric derives the per-shard instrument name for one shard of the
// sharded event pump (e.g. "pump.queue.depth.shard.3"). The aggregate
// names above keep their meaning; a sharded pump additionally registers
// one instrument per shard under these derived names, and the snapshot's
// sorted output groups them behind their aggregate.
func ShardMetric(base string, shard int) string {
	return fmt.Sprintf("%s.shard.%d", base, shard)
}

// Canonical span names, one per cross-layer hop.
const (
	SpanUISubmit        = "ui.submit"
	SpanSynthSubmit     = "synthesis.submit"
	SpanSynthEvent      = "synthesis.event"
	SpanCtlScript       = "controller.script"
	SpanCtlCommand      = "controller.command"
	SpanCtlEvent        = "controller.event"
	SpanBrokerCall      = "broker.call"
	SpanBrokerStep      = "broker.step"
	SpanBrokerEvent     = "broker.event"
	SpanResourceExecute = "resource.execute"
	SpanEURun           = "eu.run"
	SpanPumpDeliver     = "pump.deliver"
	SpanMonitorTick     = "monitor.tick"
)

// ---------------------------------------------------------------------------
// Counters, gauges, histograms
// ---------------------------------------------------------------------------

// Counter is a monotonically increasing atomic counter. A nil Counter is a
// valid no-op.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge tracks a level (e.g. queue depth) and remembers the high-water
// mark. A nil Gauge is a valid no-op.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set records the current level and updates the high-water mark.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the high-water mark.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// histBounds are the fixed histogram bucket upper bounds. The last bucket
// is unbounded.
var histBounds = [...]time.Duration{
	10 * time.Microsecond,
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
}

// HistBuckets is the number of histogram buckets (len(bounds)+1 for the
// overflow bucket).
const HistBuckets = len(histBounds) + 1

// Histogram is a fixed-bucket latency histogram. A nil Histogram is a
// valid no-op.
type Histogram struct {
	buckets [HistBuckets]atomic.Int64
	sum     atomic.Int64 // nanoseconds
	n       atomic.Int64
}

// bucketIdx returns the bucket index for d.
func bucketIdx(d time.Duration) int {
	for i, b := range histBounds {
		if d <= b {
			return i
		}
	}
	return HistBuckets - 1
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.buckets[bucketIdx(d)].Add(1)
	h.sum.Add(int64(d))
	h.n.Add(1)
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Mean returns the mean sample duration (0 with no samples).
func (h *Histogram) Mean() time.Duration {
	if h == nil {
		return 0
	}
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Sum returns the total of all observed samples (0 for a nil histogram).
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) int64 {
	if h == nil || i < 0 || i >= HistBuckets {
		return 0
	}
	return h.buckets[i].Load()
}

// HistBoundSeconds returns bucket i's upper bound in seconds and true, or
// (0, false) for the unbounded overflow bucket. Exporters (Prometheus text
// format) use it to render `le` labels.
func HistBoundSeconds(i int) (float64, bool) {
	if i < 0 || i >= len(histBounds) {
		return 0, false
	}
	return histBounds[i].Seconds(), true
}

// bucketLabel names bucket i for snapshots.
func bucketLabel(i int) string {
	if i < len(histBounds) {
		return "<=" + histBounds[i].String()
	}
	return ">" + histBounds[len(histBounds)-1].String()
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

// Metrics is a process-wide named registry of counters, gauges and
// histograms. A nil *Metrics is a valid disabled registry: its lookup
// methods return nil instruments whose operations are no-ops.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewMetrics returns an enabled, empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (registering on first use) the named counter; nil when
// the registry is disabled.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[name]
	if !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge; nil when the
// registry is disabled.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.gauges[name]
	if !ok {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the named histogram; nil
// when the registry is disabled.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.hists[name]
	if !ok {
		h = &Histogram{}
		m.hists[name] = h
	}
	return h
}

// Each visits every registered instrument in name-sorted order: counters
// first, then gauges, then histograms. Any of the callbacks may be nil.
// The instruments handed out are live — exporters read them without
// copying — but the registry lock is not held during the visits, so
// callbacks may register further instruments.
func (m *Metrics) Each(cf func(name string, c *Counter), gf func(name string, g *Gauge), hf func(name string, h *Histogram)) {
	if m == nil {
		return
	}
	m.mu.Lock()
	counters := make(map[string]*Counter, len(m.counters))
	for name, c := range m.counters {
		counters[name] = c
	}
	gauges := make(map[string]*Gauge, len(m.gauges))
	for name, g := range m.gauges {
		gauges[name] = g
	}
	hists := make(map[string]*Histogram, len(m.hists))
	for name, h := range m.hists {
		hists[name] = h
	}
	m.mu.Unlock()
	if cf != nil {
		for _, name := range sortedKeys(counters) {
			cf(name, counters[name])
		}
	}
	if gf != nil {
		for _, name := range sortedKeys(gauges) {
			gf(name, gauges[name])
		}
	}
	if hf != nil {
		for _, name := range sortedKeys(hists) {
			hf(name, hists[name])
		}
	}
}

// CounterValue returns the named counter's value (0 when absent/disabled).
func (m *Metrics) CounterValue(name string) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	c := m.counters[name]
	m.mu.Unlock()
	return c.Value()
}

// Snapshot formats every registered instrument, sorted by name.
func (m *Metrics) Snapshot() string {
	if m == nil {
		return "metrics: disabled\n"
	}
	m.mu.Lock()
	counters := make(map[string]int64, len(m.counters))
	for name, c := range m.counters {
		counters[name] = c.Value()
	}
	gauges := make(map[string]*Gauge, len(m.gauges))
	for name, g := range m.gauges {
		gauges[name] = g
	}
	hists := make(map[string]*Histogram, len(m.hists))
	for name, h := range m.hists {
		hists[name] = h
	}
	m.mu.Unlock()

	var b strings.Builder
	b.WriteString("# counters\n")
	for _, name := range sortedKeys(counters) {
		fmt.Fprintf(&b, "%-34s %d\n", name, counters[name])
	}
	if len(gauges) > 0 {
		b.WriteString("# gauges (current / max)\n")
		for _, name := range sortedKeys(gauges) {
			g := gauges[name]
			fmt.Fprintf(&b, "%-34s %d / %d\n", name, g.Value(), g.Max())
		}
	}
	if len(hists) > 0 {
		b.WriteString("# histograms\n")
		for _, name := range sortedKeys(hists) {
			writeHist(&b, name, hists[name])
		}
	}
	return b.String()
}

func writeHist(b *strings.Builder, name string, h *Histogram) {
	fmt.Fprintf(b, "%-34s n=%d mean=%s", name, h.Count(), h.Mean())
	for i := 0; i < HistBuckets; i++ {
		if n := h.Bucket(i); n > 0 {
			fmt.Fprintf(b, " %s:%d", bucketLabel(i), n)
		}
	}
	b.WriteByte('\n')
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Tracer and spans
// ---------------------------------------------------------------------------

// SpanID identifies one span; 0 is "no span".
type SpanID uint64

// SpanRecord is one finished span kept in the tracer's bounded ring.
type SpanRecord struct {
	ID     SpanID
	Parent SpanID
	Name   string
	Start  time.Time
	Dur    time.Duration
	// Key and Value are the span's one string attribute, stored inline
	// (both empty when the span set none).
	Key, Value string
}

// spanStats aggregates finished spans by name.
type spanStats struct {
	count atomic.Int64
	hist  Histogram
}

// Tracer records spans with parent linkage. Parentage is implicit: a span
// started on a goroutine while another span of the same goroutine is open
// becomes that span's child, which matches the engine's synchronous
// cross-layer call chains without threading context through every layer
// API. A nil *Tracer is a valid disabled tracer.
type Tracer struct {
	nextID atomic.Uint64

	mu     sync.Mutex
	active map[uint64][]SpanID // goroutine id → open span stack
	byName map[string]*spanStats
	ring   []SpanRecord
	cursor int
	filled bool
}

// defaultRingCap bounds the finished-span ring.
const defaultRingCap = 4096

// NewTracer returns an enabled tracer keeping the most recent finished
// spans in a bounded ring.
func NewTracer() *Tracer {
	return &Tracer{
		active: make(map[uint64][]SpanID),
		byName: make(map[string]*spanStats),
		ring:   make([]SpanRecord, defaultRingCap),
	}
}

// Enabled reports whether the tracer records spans.
func (t *Tracer) Enabled() bool { return t != nil }

// Span is one traced operation. The zero Span (returned by a disabled
// tracer) is a valid no-op; End and SetStr return immediately.
type Span struct {
	t      *Tracer
	id     SpanID
	parent SpanID
	gid    uint64
	name   string
	start  time.Time
	key    string
	value  string
}

// Start opens a span named name, linked to the innermost span currently
// open on this goroutine.
func (t *Tracer) Start(name string) Span {
	if t == nil {
		return Span{}
	}
	g := goid()
	id := SpanID(t.nextID.Add(1))
	t.mu.Lock()
	stack := t.active[g]
	var parent SpanID
	if n := len(stack); n > 0 {
		parent = stack[n-1]
	}
	t.active[g] = append(stack, id)
	t.mu.Unlock()
	return Span{t: t, id: id, parent: parent, gid: g, name: name, start: time.Now()}
}

// ID returns the span's identifier (0 for a no-op span).
func (s Span) ID() SpanID { return s.id }

// Parent returns the parent span's identifier (0 for roots).
func (s Span) Parent() SpanID { return s.parent }

// SetStr sets the span's one string attribute, replacing any earlier
// one. It is stored inline in the span and its record, so it allocates
// nothing, and a disabled span costs only the nil check.
func (s *Span) SetStr(key, v string) {
	if s.t == nil {
		return
	}
	s.key, s.value = key, v
}

// End closes the span, pops it from its goroutine's stack and folds it
// into the per-name statistics and the recent-span ring.
func (s Span) End() {
	if s.t == nil {
		return
	}
	dur := time.Since(s.start)
	t := s.t
	t.mu.Lock()
	stack := t.active[s.gid]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == s.id {
			stack = append(stack[:i], stack[i+1:]...)
			break
		}
	}
	if len(stack) == 0 {
		delete(t.active, s.gid)
	} else {
		t.active[s.gid] = stack
	}
	st, ok := t.byName[s.name]
	if !ok {
		st = &spanStats{}
		t.byName[s.name] = st
	}
	t.ring[t.cursor] = SpanRecord{
		ID: s.id, Parent: s.parent, Name: s.name,
		Start: s.start, Dur: dur, Key: s.key, Value: s.value,
	}
	t.cursor++
	if t.cursor == len(t.ring) {
		t.cursor = 0
		t.filled = true
	}
	t.mu.Unlock()
	st.count.Add(1)
	st.hist.Observe(dur)
}

// Count returns the number of finished spans named name.
func (t *Tracer) Count(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	st := t.byName[name]
	t.mu.Unlock()
	if st == nil {
		return 0
	}
	return st.count.Load()
}

// Counts returns finished-span counts by name.
func (t *Tracer) Counts() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.byName))
	for name, st := range t.byName {
		out[name] = st.count.Load()
	}
	return out
}

// Recent returns the most recent finished spans, oldest first.
func (t *Tracer) Recent() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SpanRecord
	if t.filled {
		out = append(out, t.ring[t.cursor:]...)
	}
	out = append(out, t.ring[:t.cursor]...)
	return out
}

// Snapshot formats per-name span counts and latency statistics, sorted by
// span name.
func (t *Tracer) Snapshot() string {
	if t == nil {
		return "tracer: disabled\n"
	}
	t.mu.Lock()
	stats := make(map[string]*spanStats, len(t.byName))
	for name, st := range t.byName {
		stats[name] = st
	}
	t.mu.Unlock()
	var b strings.Builder
	b.WriteString("# spans\n")
	for _, name := range sortedKeys(stats) {
		writeHist(&b, name, &stats[name].hist)
	}
	return b.String()
}

// GoID returns the calling goroutine's id. Layers use it to keep
// per-goroutine re-entrancy state (event drains that must not recurse on
// the goroutine already processing an event, while letting other
// goroutines proceed concurrently).
func GoID() uint64 { return goid() }

// goidBufPool recycles the header buffers goid hands to runtime.Stack.
// runtime.Stack's argument always escapes, so a local array would be a
// fresh heap allocation per call — and goid runs at least twice per
// synchronously delivered event (the Broker's and the Controller's
// re-entrancy drains).
var goidBufPool = sync.Pool{New: func() any {
	b := make([]byte, 64)
	return &b
}}

// goid parses the running goroutine's id from its stack header
// ("goroutine N [running]:"). It costs roughly a microsecond and does not
// allocate in steady state.
func goid() uint64 {
	bp := goidBufPool.Get().(*[]byte)
	buf := *bp
	n := runtime.Stack(buf, false)
	const prefix = len("goroutine ")
	var id uint64
	for _, c := range buf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	goidBufPool.Put(bp)
	return id
}

// ---------------------------------------------------------------------------
// Bundle
// ---------------------------------------------------------------------------

// Obs bundles a tracer and a metrics registry. A nil *Obs (or a bundle of
// nils) is a valid disabled observer.
type Obs struct {
	Tracer  *Tracer
	Metrics *Metrics
}

// New returns an enabled tracer+metrics bundle.
func New() *Obs {
	return &Obs{Tracer: NewTracer(), Metrics: NewMetrics()}
}

// TracerOf returns o's tracer, nil for a nil bundle.
func (o *Obs) TracerOf() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// MetricsOf returns o's metrics, nil for a nil bundle.
func (o *Obs) MetricsOf() *Metrics {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// Snapshot formats the full observability state: metrics first, then span
// statistics.
func (o *Obs) Snapshot() string {
	if o == nil {
		return "observability: disabled\n"
	}
	return o.Metrics.Snapshot() + o.Tracer.Snapshot()
}
