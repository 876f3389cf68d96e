// Config is the unified tuning surface of a platform. Five PRs accreted
// one functional option per knob (WithPumpQueue, WithPumpShards,
// WithShardKey, WithDrainTimeout, WithDLQCapacity, WithSupervisor,
// WithExternalEvents); a caller that wants to carry a
// tuning profile around — a CLI flag set, a per-tenant quota in
// mddsm-serve — had to haul a []Option. Config collapses the surface into
// one documented struct with Defaults() and Validate(); the functional
// options survive as thin wrappers over the same fields, so every existing
// caller compiles unchanged and the two styles compose (options applied
// after WithConfig override it field by field).

package runtime

import (
	"fmt"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
)

// DLQDisabled is the DLQCapacity sentinel that turns dead-lettering off:
// failed deliveries then revert to counted terminal losses
// ("pump.deliver.failures"). The zero value means "default capacity", so
// disabling must be explicit.
const DLQDisabled = -1

// Config collects every platform tunable previously reachable only through
// functional options. The zero value of each field means "use the
// default"; start from Defaults() to see (and override) the resolved
// values explicitly. Negative values are invalid except where a sentinel
// is documented (DLQCapacity).
type Config struct {
	// PumpQueue is each pump shard's queue capacity (default 256).
	// PostEvent reports false and counts a rejection when the target
	// shard's queue is full.
	PumpQueue int

	// PumpShards is the event pump's shard count (default 0 =
	// GOMAXPROCS). Each shard owns a bounded queue and a delivery
	// goroutine; events sharing a shard key are delivered strictly in
	// post order, events on different shards concurrently.
	PumpShards int

	// ShardKey names the event attribute the pump shards by. Events
	// carrying the attribute are routed by its value; events without it
	// (and the default, "") fall back to a hash of the event name.
	ShardKey string

	// DrainTimeout bounds Stop's graceful drain (default 5s): events
	// still queued when the deadline expires are abandoned as counted
	// drops.
	DrainTimeout time.Duration

	// DLQCapacity bounds the dead-letter queue (default 256, the zero
	// value). DLQDisabled (-1) disables dead-lettering entirely.
	DLQCapacity int

	// Supervisor tunes the watchdog supervisor's health thresholds and
	// restart backoff; the zero config's defaults apply otherwise.
	Supervisor SupervisorConfig

	// DeltaValidation switches the Synthesis layer to incremental delta
	// validation: a submission re-checks only the objects it touches (and
	// the objects referring to them) instead of re-validating the whole
	// model. Verdicts and problem reports are
	// identical to full validation. Requires the DSML to compile; a
	// non-compiling DSML silently keeps the full-validation path.
	DeltaValidation bool

	// ExternalEvents routes events escaping the topmost layer to the
	// given observer (interoperability bridges attach here).
	ExternalEvents func(broker.Event)

	// MonitorInterval is the autonomic monitor's default evaluation
	// period (default 1s); Monitor's WithInterval option overrides it per
	// call.
	MonitorInterval time.Duration
}

// Defaults returns the resolved default configuration — the exact values a
// zero Config builds with, spelled out.
func Defaults() Config {
	return Config{
		PumpQueue:       256,
		PumpShards:      0, // GOMAXPROCS at Start
		ShardKey:        "",
		DrainTimeout:    5 * time.Second,
		DLQCapacity:     256,
		MonitorInterval: time.Second,
	}
}

// Validate rejects configurations no option could have expressed: negative
// capacities (except the DLQDisabled sentinel), shard counts or durations.
func (c Config) Validate() error {
	if c.PumpQueue < 0 {
		return fmt.Errorf("runtime config: PumpQueue %d < 0", c.PumpQueue)
	}
	if c.PumpShards < 0 {
		return fmt.Errorf("runtime config: PumpShards %d < 0", c.PumpShards)
	}
	if c.DrainTimeout < 0 {
		return fmt.Errorf("runtime config: DrainTimeout %v < 0", c.DrainTimeout)
	}
	if c.DLQCapacity < DLQDisabled {
		return fmt.Errorf("runtime config: DLQCapacity %d < %d (use DLQDisabled to disable)", c.DLQCapacity, DLQDisabled)
	}
	if c.MonitorInterval < 0 {
		return fmt.Errorf("runtime config: MonitorInterval %v < 0", c.MonitorInterval)
	}
	return nil
}

// withDefaults resolves the zero-means-default fields to their effective
// values (PumpShards stays 0 — GOMAXPROCS is resolved at pump start so a
// checkpoint restored on different hardware gets that hardware's width).
func (c Config) withDefaults() Config {
	d := Defaults()
	if c.PumpQueue == 0 {
		c.PumpQueue = d.PumpQueue
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = d.DrainTimeout
	}
	if c.DLQCapacity == 0 {
		c.DLQCapacity = d.DLQCapacity
	}
	if c.MonitorInterval == 0 {
		c.MonitorInterval = d.MonitorInterval
	}
	return c
}

// dlqCapacity maps the DLQCapacity field (with its DLQDisabled sentinel)
// to the dead-letter queue's real capacity.
func (c Config) dlqCapacity() int {
	if c.DLQCapacity == DLQDisabled {
		return 0
	}
	return c.DLQCapacity
}

// WithConfig replaces the platform's whole configuration. It composes with
// the single-field options: options applied after WithConfig override its
// fields, options applied before are overwritten. An invalid Config fails
// Build rather than being silently clamped.
func WithConfig(cfg Config) Option {
	return func(p *Platform) { p.cfg = cfg }
}

// Config returns the platform's resolved configuration (defaults applied,
// options folded in).
func (p *Platform) Config() Config { return p.cfg }
