// Package cliutil is the shared flag surface of the mddsm commands.
// mddsm-run and mddsm-bench used to re-declare the same flags (-obs,
// -faults, -validate-mode, -pump-shards) with drifting
// help strings and copy-pasted resolution logic; mddsm-serve would have
// been the third copy. The flags register here once, and Resolve turns
// them into the runtime objects every command needs: the observability
// bundle, the fault injector (metrics bound), and a runtime.Config with
// the validation mode and pump sharding folded in.
package cliutil

import (
	"flag"
	"fmt"

	"github.com/mddsm/mddsm/internal/fault"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/runtime"
)

// Common holds the shared flag values. Zero-value fields mean "flag not
// registered or not set".
type Common struct {
	// Obs arms instrumentation (-obs).
	Obs bool
	// Faults is the fault-injection schedule (-faults).
	Faults string
	// ValidateMode forces the conformance validator (-validate-mode).
	ValidateMode string
	// PumpShards is the event-pump shard count (-pump-shards, 0 =
	// GOMAXPROCS).
	PumpShards int

	pumpRegistered bool
}

// Register installs the flags every command shares: -obs, -faults and
// -validate-mode.
func Register(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.BoolVar(&c.Obs, "obs", false, "instrument the run and print an observability snapshot")
	fs.StringVar(&c.Faults, "faults", "", `inject faults: "seed=N,site:kind[:p=0.5][:d=10ms][:n=3],..." (see internal/fault)`)
	fs.StringVar(&c.ValidateMode, "validate-mode", "", "conformance validator: compiled, interpreted or delta (default compiled with interpreted fallback; delta re-checks only touched objects per submission)")
	return c
}

// RegisterPump additionally installs -pump-shards.
func (c *Common) RegisterPump(fs *flag.FlagSet) *Common {
	fs.IntVar(&c.PumpShards, "pump-shards", 0, "event-pump shards (0 = GOMAXPROCS); same-source events stay ordered per shard key")
	c.pumpRegistered = true
	return c
}

// ApplyValidationMode parses -validate-mode and installs it process-wide;
// it is a no-op when the flag is empty. The "delta" mode keeps the
// compiled validator for whole-model checks (delta validation builds on
// its layout tables) and is wired into runtime.Config by Resolve.
func (c *Common) ApplyValidationMode() error {
	switch c.ValidateMode {
	case "":
		return nil
	case "delta":
		metamodel.SetValidationMode(metamodel.ModeCompiled)
		return nil
	}
	mode, err := metamodel.ParseValidationMode(c.ValidateMode)
	if err != nil {
		return err
	}
	metamodel.SetValidationMode(mode)
	return nil
}

// Resolve turns the parsed flags into their runtime objects:
//
//   - the observability bundle (nil without -obs), with the metamodel
//     compile metrics bound;
//   - the fault injector (nil without -faults), its metrics bound to the
//     obs bundle when both are armed;
//   - a runtime.Config carrying -pump-shards and delta validation when
//     -validate-mode is delta.
//
// Resolve also applies -validate-mode; call it once after flag parsing.
func (c *Common) Resolve() (*obs.Obs, *fault.Injector, runtime.Config, error) {
	rcfg := runtime.Config{}
	if err := c.ApplyValidationMode(); err != nil {
		return nil, nil, rcfg, err
	}
	var o *obs.Obs
	if c.Obs {
		o = obs.New()
		metamodel.BindMetrics(o.MetricsOf())
	}

	if c.ValidateMode == "delta" {
		rcfg.DeltaValidation = true
	}
	if c.pumpRegistered {
		rcfg.PumpShards = c.PumpShards
	}

	var inj *fault.Injector
	if c.Faults != "" {
		var err error
		inj, err = fault.Parse(c.Faults)
		if err != nil {
			return nil, nil, rcfg, fmt.Errorf("-faults: %w", err)
		}
		if o != nil {
			inj.BindMetrics(o.MetricsOf())
		}
	}
	return o, inj, rcfg, nil
}
