// Config is the one tuning surface of a platform: Build, Restore and
// RestoreSnapshot take it by value, and a bundle carries it in
// domains.Config.Runtime. A caller that carries a tuning profile around —
// a CLI flag set, a per-tenant quota in mddsm-serve — passes one
// comparable struct, documented here with its Defaults() and Validate().

package runtime

import (
	"fmt"
	"time"
)

// DLQDisabled is the DLQCapacity sentinel that turns dead-lettering off:
// failed deliveries then revert to counted terminal losses
// ("pump.deliver.failures"). The zero value means "default capacity", so
// disabling must be explicit.
const DLQDisabled = -1

// Config collects every platform tunable. The zero value of each field
// means "use the default"; start from Defaults() to see (and override)
// the resolved values explicitly. Negative values are invalid except
// where a sentinel is documented (DLQCapacity).
type Config struct {
	// PumpQueue is each pump shard's queue capacity (default 256).
	// PostEvent reports false and counts a rejection when the target
	// shard's queue is full.
	PumpQueue int

	// PumpShards is the event pump's shard count (default 0 =
	// GOMAXPROCS). Each shard owns a bounded queue and a delivery
	// goroutine. Events route to a shard by a hash of their name, so
	// events sharing a name are delivered strictly in post order, events
	// on different shards concurrently.
	PumpShards int

	// DrainTimeout bounds Stop's graceful drain (default 5s): events
	// still queued when the deadline expires are abandoned as counted
	// drops.
	DrainTimeout time.Duration

	// DLQCapacity bounds the dead-letter queue (default 256, the zero
	// value). DLQDisabled (-1) disables dead-lettering entirely.
	DLQCapacity int

	// DeltaValidation switches the Synthesis layer to incremental delta
	// validation: a submission re-checks only the objects it touches (and
	// the objects referring to them) instead of re-validating the whole
	// model. Verdicts and problem reports are
	// identical to full validation. Requires the DSML to compile; a
	// non-compiling DSML silently keeps the full-validation path.
	DeltaValidation bool
}

// Defaults returns the resolved default configuration — the exact values a
// zero Config builds with, spelled out.
func Defaults() Config {
	return Config{
		PumpQueue:    256,
		PumpShards:   0, // GOMAXPROCS at Start
		DrainTimeout: 5 * time.Second,
		DLQCapacity:  256,
	}
}

// Validate rejects negative capacities (except the DLQDisabled sentinel),
// shard counts and durations.
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

// Config returns the platform's resolved configuration (defaults applied).
func (p *Platform) Config() Config { return p.cfg }
