// Command mddsm-run instantiates a domain platform and executes an
// application model supplied as JSON, printing the control script the
// submission produced and the resulting resource trace.
//
// Usage:
//
//	mddsm-run -domain cml      -model session.json
//	mddsm-run -domain mgrid    -model home.json
//	mddsm-run -domain cml      -model session.json -snapshot state.json
//	mddsm-run -domain cml      -restore state.json [-model next.json]
//
// -snapshot checkpoints the platform's models@runtime state after the run;
// -restore rebuilds the platform from such a checkpoint instead of
// building it fresh (a -model is then optional and submitted on top of the
// restored state). Any bundle in the domains registry is runnable; the
// legacy spellings cvm and mgridvm are accepted for cml and mgrid.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/mddsm/mddsm/internal/cliutil"
	"github.com/mddsm/mddsm/internal/domains"
	_ "github.com/mddsm/mddsm/internal/domains/all"
	"github.com/mddsm/mddsm/internal/fault"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/runtime"
	"github.com/mddsm/mddsm/internal/script"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mddsm-run:", err)
		os.Exit(1)
	}
}

// legacyNames maps the pre-registry domain spellings onto bundle names.
var legacyNames = map[string]string{"cvm": "cml", "mgridvm": "mgrid"}

func run(args []string) error {
	fs := flag.NewFlagSet("mddsm-run", flag.ContinueOnError)
	domain := fs.String("domain", "cml", "domain bundle to run: "+strings.Join(domains.Names(), ", "))
	modelPath := fs.String("model", "", "application model JSON")
	snapshotPath := fs.String("snapshot", "", "checkpoint the platform state to this file after the run")
	restorePath := fs.String("restore", "", "rebuild the platform from this checkpoint instead of building it fresh")
	common := cliutil.Register(fs).RegisterPump(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" && *restorePath == "" {
		return fmt.Errorf("need -model (or -restore)")
	}
	var m *metamodel.Model
	if *modelPath != "" {
		data, err := os.ReadFile(*modelPath)
		if err != nil {
			return err
		}
		if m, err = metamodel.UnmarshalModel(data); err != nil {
			return err
		}
	}
	var snap []byte
	if *restorePath != "" {
		var err error
		if snap, err = os.ReadFile(*restorePath); err != nil {
			return err
		}
	}

	o, inj, rcfg, err := common.Resolve()
	if err != nil {
		return err
	}
	cfg := domains.Config{Runtime: rcfg, Obs: o, Injector: inj}
	if inj != nil {
		cfg.Resilience = fault.DefaultResilience()
	}

	bundle := *domain
	if canonical, ok := legacyNames[bundle]; ok {
		bundle = canonical
	}
	var inst *domains.Instance
	if snap != nil {
		inst, err = domains.Restore(bundle, snap, cfg)
	} else {
		inst, err = domains.New(bundle, cfg)
	}
	if err != nil {
		return err
	}
	plat := inst.Platform

	var out *script.Script
	if m != nil {
		if out, err = plat.SubmitModel(m); err != nil {
			return err
		}
	}
	if *snapshotPath != "" {
		data, err := plat.Checkpoint()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*snapshotPath, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("# checkpoint written to %s (%d bytes)\n", *snapshotPath, len(data))
	}

	report(plat, out, inst.Trace(), o, inj)
	return nil
}

// report prints the run's artefacts: the synthesised script (when a model
// was submitted), the resource trace, and — when armed — the observability
// snapshot and fault schedule.
func report(plat *runtime.Platform, out *script.Script, trace string, o *obs.Obs, inj *fault.Injector) {
	if out != nil {
		fmt.Println("# synthesised control script")
		fmt.Println(script.Format(out))
	} else if plat.Synthesis != nil {
		fmt.Println("# restored runtime model")
		fmt.Printf("synthesis state=%s seq=%d\n", plat.Synthesis.State(), plat.Synthesis.Seq())
	}
	fmt.Println("# resource trace")
	fmt.Println(trace)
	if o != nil {
		fmt.Println("# observability snapshot")
		fmt.Println(o.Snapshot())
	}
	if inj != nil {
		fmt.Println("# fault schedule")
		fmt.Printf("seed=%d injected=%d\n", inj.Seed(), inj.Injected())
		for _, line := range inj.Schedule() {
			fmt.Println(line)
		}
	}
}
