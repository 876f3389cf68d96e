// Package cliutil is the shared flag surface of the mddsm commands.
// mddsm-run and mddsm-bench used to re-declare the same flags (-obs,
// -faults, -pump-shards) with drifting help strings and copy-pasted
// resolution logic; mddsm-serve would have been the third copy. The flags
// register here once, and Resolve turns them into the runtime objects
// every command needs: the observability bundle, the fault injector
// (metrics bound), and a runtime.Config with pump sharding folded in.
// No flag selects a conformance validator (see metamodel.Model.Validate).
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
	// PumpShards is the event-pump shard count (-pump-shards, 0 =
	// GOMAXPROCS).
	PumpShards int

	pumpRegistered bool
}

// Register installs the flags every command shares: -obs and -faults.
func Register(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.BoolVar(&c.Obs, "obs", false, "instrument the run and print an observability snapshot")
	fs.StringVar(&c.Faults, "faults", "", `inject faults: "seed=N,site:kind[:p=0.5][:d=10ms][:n=3],..." (see internal/fault)`)
	return c
}

// RegisterPump additionally installs -pump-shards.
func (c *Common) RegisterPump(fs *flag.FlagSet) *Common {
	fs.IntVar(&c.PumpShards, "pump-shards", 0, "event-pump shards (0 = GOMAXPROCS); same-source events stay ordered per shard key")
	c.pumpRegistered = true
	return c
}

// Resolve turns the parsed flags into their runtime objects:
//
//   - the observability bundle (nil without -obs), with the metamodel
//     compile metrics bound;
//   - the fault injector (nil without -faults), its metrics bound to the
//     obs bundle when both are armed;
//   - a runtime.Config carrying -pump-shards.
//
// Call it once after flag parsing.
func (c *Common) Resolve() (*obs.Obs, *fault.Injector, runtime.Config, error) {
	rcfg := runtime.Config{}
	var o *obs.Obs
	if c.Obs {
		o = obs.New()
		metamodel.BindMetrics(o.MetricsOf())
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
