// Command mddsmc is the MD-DSM model compiler/validator: it loads
// metamodel and model JSON documents, checks conformance, and diffs model
// versions — the command-line face of the metamodel framework.
//
// Usage:
//
//	mddsmc validate -metamodel mm.json -model m.json
//	mddsmc validate-middleware -model mw.json
//	mddsmc diff -metamodel mm.json -old a.json -new b.json
//	mddsmc export-middleware-metamodel
//	mddsmc coverage -domain cvm|mgridvm|2svm|csvm-provider|csvm-device
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/mddsm/mddsm/internal/core"
	"github.com/mddsm/mddsm/internal/domains/cml"
	"github.com/mddsm/mddsm/internal/domains/csense"
	"github.com/mddsm/mddsm/internal/domains/mgrid"
	"github.com/mddsm/mddsm/internal/domains/smartspace"
	"github.com/mddsm/mddsm/internal/lts"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/mwmeta"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mddsmc:", err)
		os.Exit(1)
	}
}

// run executes one subcommand, writing its results to out.
func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: mddsmc <validate|validate-middleware|diff|export-middleware-metamodel|coverage> [flags]")
	}
	switch args[0] {
	case "validate":
		return cmdValidate(args[1:], out)
	case "validate-middleware":
		return cmdValidateMiddleware(args[1:], out)
	case "diff":
		return cmdDiff(args[1:], out)
	case "export-middleware-metamodel":
		return cmdExportMM(out)
	case "coverage":
		return cmdCoverage(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func loadMetamodel(path string) (*metamodel.Metamodel, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return metamodel.UnmarshalMetamodel(data)
}

func loadModel(path string) (*metamodel.Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return metamodel.UnmarshalModel(data)
}

func cmdValidate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	mmPath := fs.String("metamodel", "", "metamodel JSON")
	mPath := fs.String("model", "", "model JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mmPath == "" || *mPath == "" {
		return fmt.Errorf("validate needs -metamodel and -model")
	}
	mm, err := loadMetamodel(*mmPath)
	if err != nil {
		return err
	}
	m, err := loadModel(*mPath)
	if err != nil {
		return err
	}
	if err := m.Validate(mm); err != nil {
		return fmt.Errorf("model does not conform to %s: %w", mm.Name, err)
	}
	_, err = fmt.Fprintf(out, "ok: %d objects conform to metamodel %s\n", m.Len(), mm.Name)
	return err
}

func cmdValidateMiddleware(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("validate-middleware", flag.ContinueOnError)
	mPath := fs.String("model", "", "middleware model JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mPath == "" {
		return fmt.Errorf("validate-middleware needs -model")
	}
	m, err := loadModel(*mPath)
	if err != nil {
		return err
	}
	if err := m.Validate(mwmeta.MM()); err != nil {
		return fmt.Errorf("middleware model does not conform: %w", err)
	}
	_, err = fmt.Fprintf(out, "ok: middleware model with %d objects conforms to %s\n", m.Len(), mwmeta.Name)
	return err
}

func cmdDiff(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	mmPath := fs.String("metamodel", "", "metamodel JSON (optional, validates both sides)")
	oldPath := fs.String("old", "", "old model JSON")
	newPath := fs.String("new", "", "new model JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *oldPath == "" || *newPath == "" {
		return fmt.Errorf("diff needs -old and -new")
	}
	oldM, err := loadModel(*oldPath)
	if err != nil {
		return err
	}
	newM, err := loadModel(*newPath)
	if err != nil {
		return err
	}
	if *mmPath != "" {
		mm, err := loadMetamodel(*mmPath)
		if err != nil {
			return err
		}
		if err := oldM.Validate(mm); err != nil {
			return fmt.Errorf("old model: %w", err)
		}
		if err := newM.Validate(mm); err != nil {
			return fmt.Errorf("new model: %w", err)
		}
	}
	changes := metamodel.Diff(oldM, newM)
	if changes.Empty() {
		_, err = fmt.Fprintln(out, "models are equivalent")
		return err
	}
	_, err = fmt.Fprintln(out, changes)
	return err
}

// builtinDefinitions maps domain names to their MD-DSM definitions for the
// coverage subcommand.
func builtinDefinitions() map[string]core.Definition {
	return map[string]core.Definition{
		"cvm": {
			Name: "cvm", DSML: cml.Metamodel(), Middleware: cml.MiddlewareModel(),
			DSK: core.DSK{Taxonomy: cml.Taxonomy(), Procedures: cml.Procedures(),
				LTSes: map[string]*lts.LTS{cml.LTSName: cml.SynthesisLTS()}},
		},
		"mgridvm": {
			Name: "mgridvm", DSML: mgrid.Metamodel(), Middleware: mgrid.MiddlewareModel(),
			DSK: core.DSK{Taxonomy: mgrid.Taxonomy(), Procedures: mgrid.Procedures(),
				LTSes: map[string]*lts.LTS{mgrid.LTSName: mgrid.SynthesisLTS()}},
		},
		"2svm": {
			Name: "2svm", DSML: smartspace.Metamodel(), Middleware: smartspace.CentralModel(),
			DSK: core.DSK{LTSes: map[string]*lts.LTS{smartspace.LTSName: smartspace.SynthesisLTS()}},
		},
		"csvm-provider": {
			Name: "csvm-provider", DSML: csense.Metamodel(), Middleware: csense.ProviderModel(),
			DSK: core.DSK{LTSes: map[string]*lts.LTS{csense.ProviderLTSName: csense.ProviderLTS()}},
		},
		"csvm-device": {
			Name: "csvm-device", DSML: csense.Metamodel(), Middleware: csense.DeviceModel(),
			DSK: core.DSK{LTSes: map[string]*lts.LTS{csense.DeviceLTSName: csense.DeviceLTS()}},
		},
	}
}

// cmdCoverage prints the DSML-support assurance report for a built-in
// domain definition (core.AnalyzeCoverage).
func cmdCoverage(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("coverage", flag.ContinueOnError)
	domain := fs.String("domain", "cvm", "built-in domain definition to analyse")
	if err := fs.Parse(args); err != nil {
		return err
	}
	defs := builtinDefinitions()
	def, ok := defs[*domain]
	if !ok {
		names := make([]string, 0, len(defs))
		for n := range defs {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown domain %q (want one of %s)", *domain, strings.Join(names, ", "))
	}
	cov, err := core.AnalyzeCoverage(def)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(out, "domain %s:\n%s", *domain, cov); err != nil {
		return err
	}
	if !cov.Complete() {
		return fmt.Errorf("domain %s has unroutable operations", *domain)
	}
	return nil
}

func cmdExportMM(out io.Writer) error {
	data, err := metamodel.MarshalMetamodel(mwmeta.MM())
	if err != nil {
		return err
	}
	_, err = out.Write(append(data, '\n'))
	return err
}
