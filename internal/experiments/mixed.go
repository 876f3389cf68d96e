package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
	_ "github.com/mddsm/mddsm/internal/domains/all"
	"github.com/mddsm/mddsm/internal/domgen"
	"github.com/mddsm/mddsm/internal/fault"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/runtime"
	"github.com/mddsm/mddsm/internal/serve"
)

// The mixed-workload soak: hundreds of heterogeneous tenant platforms —
// the four hand-built bundles plus a deterministic fleet of generated
// synthetic domains (internal/domgen) — run concurrently in one
// mddsm-serve host under skewed event load, seeded fault injection and
// mid-run evict/rehydrate churn. The run asserts the PR-3/PR-4 exact
// accounting invariant per tenant (posted = delivered + failures +
// dead-lettered + dropped) and reports the per-bundle ledgers.
// mddsm-bench -e mixed prints the table.

// MixedConfig parameterises one mixed-workload run. The zero value
// selects the canonical benchmark shape (DefaultMixedConfig).
type MixedConfig struct {
	// Seed drives tenant mix, load skew, round ordering and churn.
	Seed int64
	// Tenants is the total tenant count (hand-built + synthetic).
	Tenants int
	// SyntheticBundles is the size of the generated domain fleet.
	SyntheticBundles int
	// MaxResident caps live platforms; tenants beyond it churn through
	// evict/rehydrate.
	MaxResident int
	// EventsPerTenantMean is the mean per-tenant event budget; the skew
	// spreads actual budgets from ~mean/4 to ~3×mean.
	EventsPerTenantMean int
	// Rounds splits every tenant's budget into that many bursts, with
	// churn (forced evictions) between rounds.
	Rounds int
	// ChurnFraction is the fraction of tenants force-evicted between
	// rounds (picked deterministically from the run's rng).
	ChurnFraction float64
	// Faults is the fault.Parse spec armed on every tenant platform. The
	// canonical config arms only pump.post drops: those draw randomness
	// on the (single) driver goroutine, so all counters stay
	// byte-deterministic. Soak tests layer broker-side error faults on
	// top, trading byte-for-byte counts for harsher failure paths.
	Faults string
}

// DefaultMixedConfig is the canonical benchmark shape: 120 tenants (a
// quarter hand-built, the rest drawn from 24 generated domains) over 72
// residency slots.
func DefaultMixedConfig() MixedConfig {
	return MixedConfig{
		Seed:                42,
		Tenants:             120,
		SyntheticBundles:    24,
		MaxResident:         72,
		EventsPerTenantMean: 80,
		Rounds:              4,
		ChurnFraction:       0.15,
		Faults:              "seed=42,pump.post:drop:p=0.01",
	}
}

func (c MixedConfig) withDefaults() MixedConfig {
	d := DefaultMixedConfig()
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Tenants <= 0 {
		c.Tenants = d.Tenants
	}
	if c.SyntheticBundles <= 0 {
		c.SyntheticBundles = d.SyntheticBundles
	}
	if c.MaxResident <= 0 {
		c.MaxResident = d.MaxResident
	}
	if c.EventsPerTenantMean <= 0 {
		c.EventsPerTenantMean = d.EventsPerTenantMean
	}
	if c.Rounds <= 0 {
		c.Rounds = d.Rounds
	}
	if c.ChurnFraction < 0 {
		c.ChurnFraction = 0
	}
	// The canonical fault profile arms only the admission-path drop site
	// (deterministic counters; see the Faults field doc). "none" opts out
	// of injection entirely.
	if c.Faults == "" {
		c.Faults = fmt.Sprintf("seed=%d,pump.post:drop:p=0.01", c.Seed)
	}
	if c.Faults == "none" {
		c.Faults = ""
	}
	return c
}

// builtinMix cycles the hand-built bundles through every fourth tenant,
// with an event each accepts (unmatched events are delivered no-ops, so
// any name keeps the ledgers exact; these exercise real event actions).
var builtinMix = []struct{ bundle, event string }{
	{"cml", "mediaFailure"},
	{"mgrid", "telemetry"},
	{"smartspace", "motion"},
	{"csense", "tick"},
}

// MixedBundleRow aggregates the tenant ledgers of one bundle.
type MixedBundleRow struct {
	Bundle       string `json:"bundle"`
	Kind         string `json:"kind"` // "builtin" | "synthetic"
	Tenants      int    `json:"tenants"`
	Posted       int64  `json:"posted"`
	Delivered    int64  `json:"delivered"`
	Failures     int64  `json:"failures"`
	DeadLettered int64  `json:"deadlettered"`
	Dropped      int64  `json:"dropped"`
	Rejected     int64  `json:"rejected"`
}

// MixedReport is the record of one mixed-workload run. Every field except
// the two wall-clock ones (EventsPerSec, WallNs) is a pure function of the
// config — CanonicalJSON zeroes those two, and the remaining bytes are the
// determinism witness the tests compare.
type MixedReport struct {
	Seed             int64            `json:"seed"`
	Tenants          int              `json:"tenants"`
	SyntheticBundles int              `json:"synthetic_bundles"`
	MaxResident      int              `json:"max_resident"`
	Rounds           int              `json:"rounds"`
	Faults           string           `json:"faults"`
	Events           int64            `json:"events"`   // post attempts
	Accepted         int64            `json:"accepted"` // admitted into pumps
	Rejected         int64            `json:"rejected"` // refused at admission
	Evictions        int64            `json:"evictions"`
	Rehydrations     int64            `json:"rehydrations"`
	Throttled        int64            `json:"throttled"`
	AccountingExact  bool             `json:"accounting_exact"`
	Bundles          []MixedBundleRow `json:"bundles"`
	EventsPerSec     float64          `json:"events_per_sec"`
	WallNs           int64            `json:"wall_ns"`

	// PerTenant is the raw ledger per tenant, for tests; it is not part
	// of the serialised report.
	PerTenant map[string]serve.Accounting `json:"-"`
}

// CanonicalJSON serialises the report with the wall-clock-dependent
// fields zeroed: two runs at the same config must produce identical
// bytes.
func (r *MixedReport) CanonicalJSON() ([]byte, error) {
	c := *r
	c.EventsPerSec = 0
	c.WallNs = 0
	data, err := json.MarshalIndent(&c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// mixedTenant is the driver's view of one tenant: its bundle, its event
// source and its budget.
type mixedTenant struct {
	name     string
	bundle   string
	kind     string
	dom      *domgen.Domain // nil for builtins
	event    string         // builtin event name
	budget   int
	accepted int64
	rejected int64
	posted   int // events posted so far (event-sequence cursor)
}

// syntheticFleet registers cfg.SyntheticBundles generated domains whose
// specs sweep the generator's parameter space deterministically from the
// run seed.
func syntheticFleet(cfg MixedConfig) ([]*domgen.Domain, error) {
	shapes := []string{domgen.ShapeLoop, domgen.ShapeRing, domgen.ShapeStar}
	fleet := make([]*domgen.Domain, 0, cfg.SyntheticBundles)
	for i := 0; i < cfg.SyntheticBundles; i++ {
		spec := domgen.Spec{
			Name:           fmt.Sprintf("mix%d-%d", cfg.Seed, i),
			Seed:           cfg.Seed*1000 + int64(i),
			Classes:        1 + i%8,
			Depth:          i % 4,
			AttrsPerClass:  1 + i%6,
			Enums:          i % 3,
			EnumLiterals:   2 + i%3,
			LTSStates:      1 + i%6,
			LTSShape:       shapes[i%len(shapes)],
			LTSDensity:     float64(i%5) / 4,
			EventTypes:     1 + i%8,
			InitialObjects: 2 + 2*(i%8),
		}
		d, err := domgen.Register(spec)
		if err != nil {
			return nil, fmt.Errorf("mixed: synthetic bundle %d: %w", i, err)
		}
		fleet = append(fleet, d)
	}
	return fleet, nil
}

// MeasureMixed runs the mixed workload and returns its report. All
// decisions (tenant mix, skew, round order, churn victims) derive from
// cfg.Seed, so two runs at the same config agree on every counter.
func MeasureMixed(cfg MixedConfig) (*MixedReport, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	fleet, err := syntheticFleet(cfg)
	if err != nil {
		return nil, err
	}

	var inj *fault.Injector
	if cfg.Faults != "" {
		inj, err = fault.Parse(cfg.Faults)
		if err != nil {
			return nil, fmt.Errorf("mixed: faults: %w", err)
		}
	}
	srvObs := obs.New()
	if inj != nil {
		inj.BindMetrics(srvObs.MetricsOf())
	}
	s := serve.NewServer(serve.Config{
		MaxResident: cfg.MaxResident,
		Quota:       serve.Quota{Runtime: runtime.Config{PumpShards: 2}},
		Obs:         srvObs,
		Injector:    inj,
	})
	defer s.Close()

	// Tenant mix: every fourth tenant is hand-built, the rest cycle the
	// synthetic fleet. The skewed budgets spread load from light sensors
	// to chatty hubs around the configured mean.
	tenants := make([]*mixedTenant, cfg.Tenants)
	weights := make([]int, cfg.Tenants)
	sumW := 0
	for i := range weights {
		weights[i] = 1 + rng.Intn(12) // skew ≈ [mean/6.5, 12×mean/6.5]
		sumW += weights[i]
	}
	totalBudget := cfg.EventsPerTenantMean * cfg.Tenants
	synthSeq := 0
	for i := range tenants {
		mt := &mixedTenant{name: fmt.Sprintf("t%03d", i)}
		if i%4 == 0 {
			b := builtinMix[(i/4)%len(builtinMix)]
			mt.bundle, mt.kind, mt.event = b.bundle, "builtin", b.event
		} else {
			// Round-robin over the whole fleet by synthetic ordinal (not
			// tenant index), so every generated bundle hosts tenants.
			d := fleet[synthSeq%len(fleet)]
			synthSeq++
			mt.bundle, mt.kind, mt.dom = d.Name, "synthetic", d
		}
		mt.budget = totalBudget * weights[i] / sumW
		tenants[i] = mt
		if err := s.Create(mt.name, mt.bundle); err != nil {
			return nil, fmt.Errorf("mixed: create %s (%s): %w", mt.name, mt.bundle, err)
		}
		if mt.dom != nil {
			// Injected faults may surface through the synchronous submit
			// path (synthesis → controller → broker steps run inline);
			// that is chaos doing its job, not a driver error.
			if _, err := s.SubmitModel(mt.name, mt.dom.Initial()); err != nil && !errors.Is(err, fault.ErrInjected) {
				return nil, fmt.Errorf("mixed: submit %s: %w", mt.name, err)
			}
		}
	}

	start := time.Now()
	var attempts, accepted, rejected int64
	order := make([]int, cfg.Tenants)
	for i := range order {
		order[i] = i
	}
	for round := 0; round < cfg.Rounds; round++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, ti := range order {
			mt := tenants[ti]
			burst := mt.budget / cfg.Rounds
			if round == cfg.Rounds-1 {
				burst = mt.budget - (cfg.Rounds-1)*(mt.budget/cfg.Rounds)
			}
			for k := 0; k < burst; k++ {
				ev := mt.nextEvent()
				attempts++
				if err := s.PostEvent(mt.name, ev); err != nil {
					mt.rejected++
					rejected++
					continue
				}
				mt.accepted++
				accepted++
			}
		}
		// Mid-run churn: force-evict a deterministic slice of the fleet.
		// Evicting drains and checkpoints; the next post rehydrates.
		if round < cfg.Rounds-1 && cfg.ChurnFraction > 0 {
			for _, mt := range tenants {
				if rng.Float64() < cfg.ChurnFraction {
					_ = s.Evict(mt.name) // already-parked tenants refuse; fine
				}
			}
		}
	}

	// Final quiesce: evict everything resident. Evict stops the platform
	// with a full drain, so every tenant ledger is settled before we read
	// it (the obs bundle is parked alongside the snapshot).
	for _, mt := range tenants {
		_ = s.Evict(mt.name)
	}
	wall := time.Since(start)

	rep := &MixedReport{
		Seed:             cfg.Seed,
		Tenants:          cfg.Tenants,
		SyntheticBundles: cfg.SyntheticBundles,
		MaxResident:      cfg.MaxResident,
		Rounds:           cfg.Rounds,
		Faults:           cfg.Faults,
		Events:           attempts,
		Accepted:         accepted,
		Rejected:         rejected,
		AccountingExact:  true,
		EventsPerSec:     float64(accepted) / wall.Seconds(),
		WallNs:           wall.Nanoseconds(),
		PerTenant:        make(map[string]serve.Accounting, cfg.Tenants),
	}
	rows := make(map[string]*MixedBundleRow)
	for _, mt := range tenants {
		a, err := s.Accounting(mt.name)
		if err != nil {
			return nil, fmt.Errorf("mixed: accounting %s: %w", mt.name, err)
		}
		rep.PerTenant[mt.name] = a
		if !a.Exact() {
			rep.AccountingExact = false
		}
		if a.Posted != mt.accepted {
			return nil, fmt.Errorf("mixed: tenant %s: driver accepted %d but pump posted %d",
				mt.name, mt.accepted, a.Posted)
		}
		row, ok := rows[mt.bundle]
		if !ok {
			row = &MixedBundleRow{Bundle: mt.bundle, Kind: mt.kind}
			rows[mt.bundle] = row
		}
		row.Tenants++
		row.Posted += a.Posted
		row.Delivered += a.Delivered
		row.Failures += a.Failures
		row.DeadLettered += a.DeadLettered
		row.Dropped += a.Dropped
		row.Rejected += a.Rejected
	}
	for _, row := range rows {
		rep.Bundles = append(rep.Bundles, *row)
	}
	sort.Slice(rep.Bundles, func(i, j int) bool { return rep.Bundles[i].Bundle < rep.Bundles[j].Bundle })

	m := srvObs.MetricsOf()
	rep.Evictions = m.CounterValue(obs.MServeEvictions)
	rep.Rehydrations = m.CounterValue(obs.MServeRehydrations)
	rep.Throttled = m.CounterValue(obs.MServeThrottled)
	return rep, nil
}

// nextEvent produces the tenant's next deterministic event.
func (mt *mixedTenant) nextEvent() broker.Event {
	i := mt.posted
	mt.posted++
	if mt.dom != nil {
		return mt.dom.Event(i)
	}
	return broker.Event{Name: mt.event, Attrs: map[string]any{"seq": i}}
}

// ReportMixed runs the canonical mixed workload and prints the per-bundle
// table.
func ReportMixed(w io.Writer) error {
	rep, err := MeasureMixed(MixedConfig{})
	if err != nil {
		return err
	}
	t := &Table{
		Title: fmt.Sprintf("Mixed — %d heterogeneous tenants (%d synthetic bundles, %d resident slots, seed %d)",
			rep.Tenants, rep.SyntheticBundles, rep.MaxResident, rep.Seed),
		Columns: []string{"bundle", "kind", "tenants", "posted", "delivered", "failures", "dlq", "dropped", "rejected"},
	}
	for _, row := range rep.Bundles {
		t.AddRow(row.Bundle, row.Kind,
			fmt.Sprintf("%d", row.Tenants),
			fmt.Sprintf("%d", row.Posted),
			fmt.Sprintf("%d", row.Delivered),
			fmt.Sprintf("%d", row.Failures),
			fmt.Sprintf("%d", row.DeadLettered),
			fmt.Sprintf("%d", row.Dropped),
			fmt.Sprintf("%d", row.Rejected))
	}
	exact := "holds for every tenant"
	if !rep.AccountingExact {
		exact = "VIOLATED"
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("exact accounting (posted = delivered + failures + dlq + dropped): %s", exact),
		fmt.Sprintf("faults %q; churn: %d evictions, %d rehydrations, %d throttles",
			rep.Faults, rep.Evictions, rep.Rehydrations, rep.Throttled),
		fmt.Sprintf("%d/%d events admitted at %.0f events/sec (wall %s, drain included)",
			rep.Accepted, rep.Events, rep.EventsPerSec, time.Duration(rep.WallNs)))
	t.Print(w)
	return nil
}
