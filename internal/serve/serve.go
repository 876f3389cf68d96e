// Package serve is the multi-tenant platform server behind mddsm-serve:
// one process provisioning an MD-DSM platform per tenant, keyed by a
// registered domain bundle, multiplexed over the internal/remote wire.
//
// Each tenant owns a full platform (built through the domains registry
// with its own observability bundle and per-tenant runtime quota) while
// the expensive machinery is shared: via the bundles' memoised DSML
// instances, all tenants of a domain validate through one compiled
// conformance validator, so the hundredth tenant of a bundle reuses what
// the first tenant compiled.
//
// Residency is bounded: past Config.MaxResident live platforms, the
// least-recently-touched tenant is evicted — checkpointed through the
// runtime's snapshot format, stopped, and parked as bytes. The next frame
// naming an evicted tenant rehydrates it through domains.Restore before
// routing, so eviction is invisible to clients beyond latency. Event
// intake is quota'd per tenant by a token bucket (Quota.EventRate /
// EventBurst) in front of the pump's own bounded queues; a throttled or
// overflowed post is an exactly-counted rejection, never a block.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/fault"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/remote"
	"github.com/mddsm/mddsm/internal/runtime"
	"github.com/mddsm/mddsm/internal/script"
)

// DefaultMaxResident bounds live platforms when Config.MaxResident is 0.
const DefaultMaxResident = 64

// Sentinel errors, wrapped into the contextual messages the Server
// returns so transports (the HTTP API) can map refusal classes to status
// codes with errors.Is instead of parsing message text.
var (
	// ErrNoTenant marks a request naming a tenant that is neither
	// resident nor parked.
	ErrNoTenant = errors.New("no such tenant")
	// ErrThrottled marks an event refused by the tenant's rate quota.
	ErrThrottled = errors.New("over event rate quota")
	// ErrQueueFull marks an event refused by the pump's bounded queue.
	ErrQueueFull = errors.New("event queue full")
	// ErrTenantExists marks a Create naming a tenant that already exists,
	// resident or parked.
	ErrTenantExists = errors.New("exists")
)

// Quota bounds one tenant's resource consumption.
type Quota struct {
	// Runtime is the tenant platform's tuning profile (pump queue depth,
	// shard count, DLQ capacity, ...).
	Runtime runtime.Config
	// EventRate is the sustained events/second admitted per tenant; <= 0
	// means unlimited.
	EventRate float64
	// EventBurst is the token-bucket depth (default 1 when EventRate > 0).
	EventBurst int
}

// Config configures a Server.
type Config struct {
	// MaxResident caps simultaneously live platforms (0 means
	// DefaultMaxResident). The overflow is parked as checkpoints.
	MaxResident int
	// Quota is applied to every tenant.
	Quota Quota
	// Obs receives the server-wide metrics: residency gauges,
	// eviction/rehydration counters and throttle counts. Nil means a
	// private bundle (readable via Server.Obs).
	Obs *obs.Obs
	// Now is the token-bucket time source (nil means time.Now); tests
	// inject a fake clock for exact quota accounting.
	Now func() time.Time
	// Injector arms every tenant platform's fault points (nil disables).
	// One injector is shared across tenants, so a seeded chaos/soak run
	// draws faults from a single deterministic stream.
	Injector *fault.Injector
}

// bucket is a token bucket: tokens refill at rate/s up to burst, one token
// per admitted event.
type bucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newBucket(q Quota, now time.Time) *bucket {
	if q.EventRate <= 0 {
		return nil // unlimited
	}
	burst := float64(q.EventBurst)
	if burst < 1 {
		burst = 1
	}
	return &bucket{rate: q.EventRate, burst: burst, tokens: burst, last: now}
}

func (b *bucket) allow(now time.Time) bool {
	if b == nil {
		return true
	}
	if el := now.Sub(b.last).Seconds(); el > 0 {
		b.tokens += el * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// tenant is one resident platform.
type tenant struct {
	name   string
	bundle string
	inst   *domains.Instance
	obs    *obs.Obs
	bucket *bucket
	touch  uint64 // LRU ticket: higher = more recent
	// ops is held shared by every submission, execution and redelivery
	// running on the platform and exclusively by whatever stops it, so
	// eviction and export wait for in-flight writes instead of
	// checkpointing a platform a write is still about to commit on. Shared
	// holds are only taken under s.mu, which an exclusive holder keeps,
	// so no new operation can start while a stop waits.
	ops sync.RWMutex
}

// parked is one evicted tenant: its platform state as a checkpoint, plus
// the tenant's obs bundle so per-tenant counters survive the park —
// rehydration continues the same accounting stream instead of resetting
// it, which is what lets the soak harness assert exact per-tenant
// accounting across arbitrary evict/rehydrate churn.
type parked struct {
	bundle   string
	snapshot []byte
	obs      *obs.Obs
}

// Server is the multi-tenant platform host. It implements remote.Router
// and remote.Control, so remote.NewRouterServer(s, addr) exposes it on the
// wire.
type Server struct {
	cfg Config
	obs *obs.Obs
	now func() time.Time

	gResident     *obs.Gauge
	gParked       *obs.Gauge
	mCreated      *obs.Counter
	mEvictions    *obs.Counter
	mRehydrations *obs.Counter
	mThrottled    *obs.Counter

	mu      sync.Mutex
	tenants map[string]*tenant
	parked  map[string]*parked
	// carried holds accounting ledgers that arrived with adopted tenants
	// (live migration / failover): the counters a tenant accumulated on
	// other nodes before landing here. Accounting and Stat fold them in so
	// a tenant's ledger stays exact across moves.
	carried map[string]Accounting
	seq     uint64
	closed  bool
	// observer, when set, receives every runtime model a tenant's
	// Synthesis layer commits (see SetModelObserver).
	observer ModelObserver
}

// NewServer builds a tenant host.
func NewServer(cfg Config) *Server {
	if cfg.MaxResident <= 0 {
		cfg.MaxResident = DefaultMaxResident
	}
	o := cfg.Obs
	if o == nil {
		o = obs.New()
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	s := &Server{
		cfg:           cfg,
		obs:           o,
		now:           now,
		gResident:     o.MetricsOf().Gauge(obs.MServeTenantsResident),
		gParked:       o.MetricsOf().Gauge(obs.MServeTenantsParked),
		mCreated:      o.MetricsOf().Counter(obs.MServeCreated),
		mEvictions:    o.MetricsOf().Counter(obs.MServeEvictions),
		mRehydrations: o.MetricsOf().Counter(obs.MServeRehydrations),
		mThrottled:    o.MetricsOf().Counter(obs.MServeThrottled),
		tenants:       make(map[string]*tenant),
		parked:        make(map[string]*parked),
		carried:       make(map[string]Accounting),
	}
	return s
}

// Obs returns the server-wide observability bundle.
func (s *Server) Obs() *obs.Obs { return s.obs }

// tenantConfig is the per-tenant domains.Config: the shared quota profile
// with the tenant's own obs bundle.
func (s *Server) tenantConfig(to *obs.Obs) domains.Config {
	return domains.Config{Runtime: s.cfg.Quota.Runtime, Obs: to, Injector: s.cfg.Injector}
}

// Create provisions a fresh tenant on the named bundle and starts its
// platform. The name must be new — neither resident nor parked.
func (s *Server) Create(name, bundle string) error {
	if name == "" {
		return fmt.Errorf("serve: tenant name must not be empty")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("serve: server closed")
	}
	if _, ok := s.tenants[name]; ok {
		return fmt.Errorf("serve: tenant %q %w", name, ErrTenantExists)
	}
	if _, ok := s.parked[name]; ok {
		return fmt.Errorf("serve: tenant %q %w (parked)", name, ErrTenantExists)
	}
	to := obs.New()
	inst, err := domains.New(bundle, s.tenantConfig(to))
	if err != nil {
		return err
	}
	if err := s.makeRoomLocked(); err != nil {
		inst.Close()
		return err
	}
	inst.Platform.Start()
	s.seq++
	t := &tenant{
		name: name, bundle: bundle, inst: inst, obs: to,
		bucket: newBucket(s.cfg.Quota, s.now()), touch: s.seq,
	}
	s.tenants[name] = t
	s.watchLocked(t)
	s.mCreated.Inc()
	s.gResident.Set(int64(len(s.tenants)))
	return nil
}

// makeRoomLocked evicts least-recently-touched tenants until a new
// resident fits under MaxResident. s.mu must be held.
func (s *Server) makeRoomLocked() error {
	for len(s.tenants) >= s.cfg.MaxResident {
		victim := ""
		var oldest uint64
		for name, t := range s.tenants {
			if victim == "" || t.touch < oldest {
				victim, oldest = name, t.touch
			}
		}
		if err := s.evictLocked(victim); err != nil {
			return err
		}
	}
	return nil
}

// evictLocked checkpoints, stops and parks one resident tenant. s.mu must
// be held.
func (s *Server) evictLocked(name string) error {
	t, ok := s.tenants[name]
	if !ok {
		return fmt.Errorf("serve: tenant %q not resident", name)
	}
	snap, err := t.quiesce()
	if err != nil {
		return fmt.Errorf("serve: evict %s: %w", name, err)
	}
	delete(s.tenants, name)
	s.parked[name] = &parked{bundle: t.bundle, snapshot: snap, obs: t.obs}
	s.mEvictions.Inc()
	s.gResident.Set(int64(len(s.tenants)))
	s.gParked.Set(int64(len(s.parked)))
	return nil
}

// quiesce waits for the tenant's in-flight operations, then stops its
// platform with drain (exact accounting) and checkpoints the settled
// state. On success the platform is retired and the exclusive hold is
// never released. On checkpoint failure Quiesce restarts the platform, so
// the tenant is never stranded half-stopped, and operations resume.
func (t *tenant) quiesce() ([]byte, error) {
	t.ops.Lock()
	snap, err := t.inst.Platform.Quiesce()
	if err != nil {
		t.ops.Unlock()
		return nil, err
	}
	return snap, nil
}

// Evict forces one tenant out of residency (checkpoint → stop → park).
func (s *Server) Evict(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictLocked(name)
}

// resident returns the named tenant's live handle, rehydrating it from its
// parked checkpoint if eviction put it to sleep. Every call refreshes the
// tenant's LRU ticket.
func (s *Server) resident(name string) (*tenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.residentLocked(name)
}

// acquire is resident plus one in-flight operation registered on the
// tenant's platform, which eviction waits for. The caller releases it with
// t.ops.RUnlock once the operation has returned.
func (s *Server) acquire(name string) (*tenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := s.residentLocked(name)
	if err != nil {
		return nil, err
	}
	t.ops.RLock()
	return t, nil
}

// residentLocked is resident with s.mu already held.
func (s *Server) residentLocked(name string) (*tenant, error) {
	if s.closed {
		return nil, fmt.Errorf("serve: server closed")
	}
	if t, ok := s.tenants[name]; ok {
		s.seq++
		t.touch = s.seq
		return t, nil
	}
	p, ok := s.parked[name]
	if !ok {
		return nil, fmt.Errorf("serve: %w %q", ErrNoTenant, name)
	}
	// Rehydrate onto the tenant's own obs bundle (parked alongside the
	// snapshot), so the counters continue rather than restart.
	to := p.obs
	if to == nil {
		to = obs.New()
	}
	inst, err := domains.Restore(p.bundle, p.snapshot, s.tenantConfig(to))
	if err != nil {
		return nil, fmt.Errorf("serve: rehydrate %s: %w", name, err)
	}
	if err := s.makeRoomLocked(); err != nil {
		inst.Close()
		return nil, err
	}
	inst.Platform.Start()
	delete(s.parked, name)
	s.seq++
	t := &tenant{
		name: name, bundle: p.bundle, inst: inst, obs: to,
		bucket: newBucket(s.cfg.Quota, s.now()), touch: s.seq,
	}
	s.tenants[name] = t
	s.watchLocked(t)
	s.mRehydrations.Inc()
	s.gResident.Set(int64(len(s.tenants)))
	s.gParked.Set(int64(len(s.parked)))
	return t, nil
}

// PostEvent admits one event into a tenant's platform through its rate
// quota and the pump's bounded queue. Both refusals are exactly counted:
// a throttle in the server's serve.events.throttled and the tenant's
// pump.events.rejected, an overflow in the tenant's pump.events.rejected
// alone (the pump counts it).
func (s *Server) PostEvent(name string, ev broker.Event) error {
	t, err := s.resident(name)
	if err != nil {
		return err
	}
	s.mu.Lock()
	ok := t.bucket.allow(s.now())
	s.mu.Unlock()
	if !ok {
		s.mThrottled.Inc()
		t.obs.MetricsOf().Counter(obs.MEventsRejected).Inc()
		return fmt.Errorf("serve: tenant %q %w", name, ErrThrottled)
	}
	if !t.inst.Platform.PostEvent(ev) {
		return fmt.Errorf("serve: tenant %q %w", name, ErrQueueFull)
	}
	return nil
}

// Execute runs one command script on a tenant's Controller. Eviction
// waits for it to return.
func (s *Server) Execute(name string, sc *script.Script) error {
	t, err := s.acquire(name)
	if err != nil {
		return err
	}
	defer t.ops.RUnlock()
	return t.inst.Platform.Execute(sc)
}

// SubmitModel submits an application model into a tenant's UI layer.
// Eviction waits for it to return, so an acknowledged submission is always
// in the checkpoint a later rehydration restores.
func (s *Server) SubmitModel(name string, m *metamodel.Model) (*script.Script, error) {
	t, err := s.acquire(name)
	if err != nil {
		return nil, err
	}
	defer t.ops.RUnlock()
	return t.inst.Platform.SubmitModel(m)
}

// Snapshot returns the tenant's current models@runtime checkpoint —
// live from the platform when resident, the parked bytes when evicted.
func (s *Server) Snapshot(name string) ([]byte, error) {
	s.mu.Lock()
	if p, ok := s.parked[name]; ok {
		snap := make([]byte, len(p.snapshot))
		copy(snap, p.snapshot)
		s.mu.Unlock()
		return snap, nil
	}
	t, ok := s.tenants[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("serve: %w %q", ErrNoTenant, name)
	}
	return t.inst.Platform.Checkpoint()
}

// ModelObserver receives the application models tenants' Synthesis layers
// commit — the feed the HTTP watch streams fan out from. Its methods run
// on the goroutine that caused the report and must not call back into the
// Server. The models are the platforms' own: shared and immutable, to be
// read and kept but never modified.
type ModelObserver interface {
	// Attach reports a tenant's current model when a platform starts
	// serving it: on create, on rehydration after eviction or adoption,
	// and for tenants already resident when the observer is installed.
	// The change lists of later commits continue from this model, which
	// differs from the last one the observer saw if the tenant's state
	// moved while it was away.
	Attach(tenant string, m *metamodel.Model)
	// Commit reports one committed model with the change list that turned
	// the tenant's previous model into it.
	Commit(tenant string, m *metamodel.Model, changes metamodel.ChangeList)
}

// watchLocked attaches the server's model observer to a tenant's UI layer.
// s.mu must be held, and no operation may be in flight on the platform,
// so no commit lands between the attach and the subscription.
func (s *Server) watchLocked(t *tenant) {
	if s.observer == nil || t.inst.Platform.UI == nil {
		return
	}
	name, o, u := t.name, s.observer, t.inst.Platform.UI
	o.Attach(name, u.Committed())
	u.Subscribe(func(m *metamodel.Model, changes metamodel.ChangeList) { o.Commit(name, m, changes) })
}

// SetModelObserver installs the observer of every tenant's committed
// models. It applies to tenants created or rehydrated afterwards and is
// retroactively attached to already-resident tenants; install it once,
// before serving traffic.
func (s *Server) SetModelObserver(o ModelObserver) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observer = o
	for _, t := range s.tenants {
		t.ops.Lock()
		s.watchLocked(t)
		t.ops.Unlock()
	}
}

// committed returns the tenant's committed application model itself —
// shared and immutable — with the DSML metamodel it conforms to,
// rehydrating the tenant if eviction parked it. Platforms without a UI
// layer read through the Synthesis layer; a platform with neither has no
// application model.
func (s *Server) committed(name string) (*metamodel.Model, *metamodel.Metamodel, error) {
	t, err := s.resident(name)
	if err != nil {
		return nil, nil, err
	}
	p := t.inst.Platform
	switch {
	case p.UI != nil:
		return p.UI.Committed(), p.UI.DSML(), nil
	case p.Synthesis != nil:
		return p.Synthesis.Committed(), p.Synthesis.DSML(), nil
	default:
		return nil, nil, fmt.Errorf("serve: tenant %q has no model layer", name)
	}
}

// Model returns a copy of the tenant's committed application model
// together with the DSML metamodel it conforms to, rehydrating the tenant
// if eviction parked it.
func (s *Server) Model(name string) (*metamodel.Model, *metamodel.Metamodel, error) {
	m, mm, err := s.committed(name)
	if err != nil {
		return nil, nil, err
	}
	return m.Clone(), mm, nil
}

// Object returns a copy of one object of the tenant's committed
// application model — nil when the model has no object with that ID —
// together with the DSML metamodel, rehydrating the tenant if eviction
// parked it. It copies only the object, so its cost does not grow with
// the model.
func (s *Server) Object(name, id string) (*metamodel.Object, *metamodel.Metamodel, error) {
	m, mm, err := s.committed(name)
	if err != nil {
		return nil, nil, err
	}
	if o := m.Get(id); o != nil {
		return o.Clone(), mm, nil
	}
	return nil, mm, nil
}

// EachTenantObs visits every tenant's observability bundle (resident and
// parked) in name-sorted order. The bundles are live; exporters read them
// without copying. The server lock is not held during the visits.
func (s *Server) EachTenantObs(f func(tenant string, o *obs.Obs, resident bool)) {
	type row struct {
		name     string
		o        *obs.Obs
		resident bool
	}
	s.mu.Lock()
	rows := make([]row, 0, len(s.tenants)+len(s.parked))
	for name, t := range s.tenants {
		rows = append(rows, row{name, t.obs, true})
	}
	for name, p := range s.parked {
		if p.obs != nil {
			rows = append(rows, row{name, p.obs, false})
		}
	}
	s.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	for _, r := range rows {
		f(r.name, r.o, r.resident)
	}
}

// Health reports each resident tenant's supervised component states as
// "tenant/component" -> health ("healthy", "degraded", "quarantined").
// Parked tenants have no live components and are omitted.
func (s *Server) Health() map[string]string {
	s.mu.Lock()
	insts := make(map[string]*domains.Instance, len(s.tenants))
	for name, t := range s.tenants {
		insts[name] = t.inst
	}
	s.mu.Unlock()
	out := make(map[string]string, 2*len(insts))
	for name, inst := range insts {
		sup := inst.Platform.Supervisor()
		for _, comp := range []string{"pump", "monitor"} {
			out[name+"/"+comp] = sup.Health(comp).String()
		}
	}
	return out
}

// Stat describes one tenant: bundle, residency, and its platform's event
// accounting. Counters are reported for parked tenants too — the obs
// bundle is parked with the snapshot, so the numbers cover the tenant's
// whole life, not just the current residency.
func (s *Server) Stat(name string) (map[string]any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, err := s.accountingLocked(name)
	if err != nil {
		return nil, err
	}
	st := map[string]any{
		"tenant": name, "bundle": a.Bundle, "resident": a.Resident,
		"posted": a.Posted, "delivered": a.Delivered, "failures": a.Failures,
		"deadlettered": a.DeadLettered, "dropped": a.Dropped, "rejected": a.Rejected,
	}
	if p, ok := s.parked[name]; ok {
		st["snapshotBytes"] = len(p.snapshot)
	}
	return st, nil
}

// Accounting is one tenant's exact event ledger, the typed counterpart of
// Stat's counters. The PR-3/PR-4 pump invariant per tenant is
//
//	Posted == Delivered + Failures + DeadLettered + Dropped
//
// once the tenant's platform has drained (stopped or evicted); Rejected
// events were never admitted and sit outside the equation.
type Accounting struct {
	Bundle       string
	Resident     bool
	Posted       int64
	Delivered    int64
	Failures     int64
	DeadLettered int64
	Dropped      int64
	Rejected     int64
}

// Exact reports whether the drained-pump accounting invariant holds.
func (a Accounting) Exact() bool {
	return a.Posted == a.Delivered+a.Failures+a.DeadLettered+a.Dropped
}

// Add sums two ledgers counter-wise, keeping a's identity fields. Cluster
// accounting folds per-node ledgers (and the ledger a migrated tenant
// carries with it) into one exact total this way.
func (a Accounting) Add(b Accounting) Accounting {
	a.Posted += b.Posted
	a.Delivered += b.Delivered
	a.Failures += b.Failures
	a.DeadLettered += b.DeadLettered
	a.Dropped += b.Dropped
	a.Rejected += b.Rejected
	return a
}

// Accounting returns the tenant's event ledger, resident or parked. The
// ledger folds in anything the tenant carried from previous homes (see
// Adopt), so the invariant spans the tenant's whole life, not just this
// node.
func (s *Server) Accounting(name string) (Accounting, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.accountingLocked(name)
}

// Tenants lists every tenant, resident and parked, sorted by name.
func (s *Server) Tenants() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.tenants)+len(s.parked))
	for name := range s.tenants {
		out = append(out, name)
	}
	for name := range s.parked {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Resident reports how many tenants are currently live.
func (s *Server) Resident() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tenants)
}

// Close drains every resident platform (graceful stop, exact accounting)
// and refuses further work. Close is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.tenants = map[string]*tenant{}
	s.mu.Unlock()
	for _, t := range tenants {
		t.ops.Lock() // let in-flight operations finish first
		t.inst.Platform.Stop()
	}
	s.gResident.Set(0)
}

// ---------------------------------------------------------------------------
// remote.Router / remote.Control
// ---------------------------------------------------------------------------

// tenantEndpoint routes one tenant's wire frames through the server, so
// quota enforcement and lazy rehydration apply per frame.
type tenantEndpoint struct {
	s    *Server
	name string
}

func (e tenantEndpoint) Execute(sc *script.Script) error {
	return e.s.Execute(e.name, sc)
}

func (e tenantEndpoint) DeliverEvent(ev broker.Event) error {
	return e.s.PostEvent(e.name, ev)
}

// Route implements remote.Router: frames for any known tenant (resident or
// parked) get an endpoint; unknown tenants are refused at the wire.
func (s *Server) Route(name string) (remote.Endpoint, error) {
	s.mu.Lock()
	_, live := s.tenants[name]
	_, sleeping := s.parked[name]
	s.mu.Unlock()
	if !live && !sleeping {
		return nil, fmt.Errorf("serve: %w %q", ErrNoTenant, name)
	}
	return tenantEndpoint{s: s, name: name}, nil
}

// Control implements remote.Control: the administrative verbs of the
// platform server.
//
//	create   args {"bundle": "cml"}         provision a tenant
//	evict    –                              checkpoint + park the tenant
//	stat     –                              tenant status + event counters
//	snapshot –                              models@runtime checkpoint JSON
//	submit   args {"model": <model JSON>}   submit an application model
//	tenants  –                              list all tenants
//	obs      –                              server-wide metrics snapshot
//	export   –                              quiesce + remove; returns the
//	                                        adoption package (bundle,
//	                                        snapshot, ledger)
//	adopt    args {"bundle","snapshot",     install an exported tenant
//	              "ledger"}
//	redeliver –                             replay the tenant's DLQ
//	forget   –                              drop a tenant without export
func (s *Server) Control(verb, tenantName string, args map[string]any) (map[string]any, error) {
	switch verb {
	case "create":
		bundle, _ := args["bundle"].(string)
		if bundle == "" {
			return nil, fmt.Errorf("serve: create needs args.bundle")
		}
		return nil, s.Create(tenantName, bundle)
	case "evict":
		return nil, s.Evict(tenantName)
	case "stat":
		return s.Stat(tenantName)
	case "snapshot":
		snap, err := s.Snapshot(tenantName)
		if err != nil {
			return nil, err
		}
		return map[string]any{"snapshot": string(snap)}, nil
	case "submit":
		raw, err := json.Marshal(args["model"])
		if err != nil {
			return nil, fmt.Errorf("serve: submit: %w", err)
		}
		m, err := metamodel.UnmarshalModel(raw)
		if err != nil {
			return nil, fmt.Errorf("serve: submit: %w", err)
		}
		out, err := s.SubmitModel(tenantName, m)
		if err != nil {
			return nil, err
		}
		return map[string]any{"script": script.Format(out)}, nil
	case "tenants":
		names := s.Tenants()
		list := make([]any, len(names))
		for i, n := range names {
			list[i] = n
		}
		return map[string]any{"tenants": list}, nil
	case "obs":
		return map[string]any{"metrics": s.obs.Snapshot()}, nil
	case "export":
		exp, err := s.Export(tenantName)
		if err != nil {
			return nil, err
		}
		return map[string]any{
			"bundle":   exp.Bundle,
			"snapshot": string(exp.Snapshot),
			"ledger":   exp.Ledger.Attrs(),
		}, nil
	case "adopt":
		bundle, _ := args["bundle"].(string)
		snapshot, _ := args["snapshot"].(string)
		var ledger Accounting
		if lm, ok := args["ledger"].(map[string]any); ok {
			ledger = AccountingFromAttrs(lm)
		}
		return nil, s.Adopt(tenantName, ExportedTenant{
			Bundle: bundle, Snapshot: []byte(snapshot), Ledger: ledger,
		})
	case "redeliver":
		rd, rq, err := s.Redeliver(tenantName)
		if err != nil {
			return nil, err
		}
		return map[string]any{"redelivered": rd, "requeued": rq}, nil
	case "forget":
		return nil, s.Forget(tenantName)
	default:
		return nil, fmt.Errorf("serve: unknown control verb %q", verb)
	}
}
