// Quickstart: build a complete MD-DSM platform for a tiny custom domain in
// one file — the DSML, its synthesis semantics, a classifier taxonomy with
// procedures, the middleware model, and a simulated resource — then run an
// application model through it and update the model at runtime.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/core"
	"github.com/mddsm/mddsm/internal/dsc"
	"github.com/mddsm/mddsm/internal/eu"
	"github.com/mddsm/mddsm/internal/lts"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/mwmeta"
	"github.com/mddsm/mddsm/internal/registry"
	"github.com/mddsm/mddsm/internal/runtime"
	"github.com/mddsm/mddsm/internal/script"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. The application DSML: a "greeting" domain — rooms hold banners.
	dsml := metamodel.New("greetml")
	dsml.MustAddClass(&metamodel.Class{Name: "Banner",
		Attributes: []metamodel.Attribute{
			{Name: "text", Kind: metamodel.KindString, Required: true},
			{Name: "loud", Kind: metamodel.KindBool, Default: false},
		},
	})

	// 2. Synthesis semantics: model changes become commands.
	sem := lts.New("greet-sem", "run")
	sem.On("run", "add-object:Banner", "", "run",
		lts.CommandTemplate{Op: "show", Target: "banner:{id}",
			Args: map[string]string{"text": "{text}", "loud": "{loud}"}})
	sem.On("run", "set-attr:Banner.text", "", "run",
		lts.CommandTemplate{Op: "retext", Target: "banner:{id}",
			Args: map[string]string{"text": "{new}"}})
	sem.On("run", "remove-object:Banner", "", "run",
		lts.CommandTemplate{Op: "hide", Target: "banner:{id}"})

	// 3. Domain-specific knowledge: the "show" operation is realised by
	//    intent-model generation over classified procedures.
	tax := dsc.NewTaxonomy()
	tax.MustAdd(&dsc.DSC{ID: "greet.render", Domain: "greet", Category: dsc.Operation})
	procs := []*registry.Procedure{
		{
			ID: "renderPlain", ClassifiedBy: "greet.render", Cost: 1, Reliability: 0.99,
			Unit: eu.NewUnit("renderPlain",
				eu.Invoke("paint", "{target}", "text", "text", "style", "'plain'")),
		},
		{
			ID: "renderNeon", ClassifiedBy: "greet.render", Cost: 5, Reliability: 0.95,
			Unit: eu.NewUnit("renderNeon",
				eu.If("loud == true",
					[]eu.Statement{eu.Invoke("paint", "{target}", "text", "text", "style", "'neon'")},
					eu.Invoke("paint", "{target}", "text", "text", "style", "'plain'"),
				)),
		},
	}

	// 4. The middleware model: all four layers authored with the builder.
	b := mwmeta.NewBuilder("GreetVM", "greet")
	b.UILayer("ui")
	b.SynthesisLayer("se", "greet-sem")
	b.ControllerLayer("ctl").
		Class("show", "greet.render").
		PassthroughAction("direct", "retext,hide", "",
			mwmeta.StepSpec{Op: "{op}", Target: "{target}"}).
		Done().
		BrokerLayer("brk").
		PassthroughAction("pass", "*", "",
			mwmeta.StepSpec{Op: "{op}", Target: "{target}"}).
		Bind("*", "display")

	// 5. The simulated resource: a display that prints what it is told.
	display := broker.AdapterFunc(func(cmd script.Command) error {
		fmt.Printf("  display <- %s\n", cmd)
		return nil
	})

	// Check the definition once; any number of platforms can then be
	// built from it, each bound to its own resources.
	def, err := core.Check(core.Definition{
		Name:       "quickstart",
		DSML:       dsml,
		Middleware: b.Model(),
		DSK: core.DSK{
			Taxonomy:   tax,
			Procedures: procs,
			LTSes:      map[string]*lts.LTS{"greet-sem": sem},
		},
	})
	if err != nil {
		return err
	}
	platform, err := core.Build(def, core.Bindings{
		Adapters: map[string]broker.Adapter{"display": display},
	}, runtime.Config{})
	if err != nil {
		return err
	}

	// 6. Author and submit an application model through the UI layer.
	fmt.Println("submitting the initial model:")
	draft := platform.UI.NewDraft()
	draft.MustAdd("hello", "Banner").SetAttr("text", "Hello, MD-DSM!").SetAttr("loud", true)
	if _, err := draft.Submit(); err != nil {
		return err
	}

	// 7. models@runtime: edit the running model; only the delta executes.
	fmt.Println("updating the running model:")
	edit := platform.UI.EditDraft()
	edit.Object("hello").SetAttr("text", "Updated at runtime")
	if _, err := edit.Submit(); err != nil {
		return err
	}

	fmt.Println("tearing down:")
	empty := platform.UI.NewDraft()
	if _, err := empty.Submit(); err != nil {
		return err
	}

	s := platform.Controller.Stats()
	fmt.Printf("controller stats: %d commands (%d predefined, %d intent-generated)\n",
		s.Commands, s.Case1, s.Case2)
	return nil
}
