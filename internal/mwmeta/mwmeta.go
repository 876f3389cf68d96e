// Package mwmeta defines the common, domain-independent middleware
// metamodel at the heart of MD-DSM (paper §V-A, Figs. 5 and 6). A
// middleware model — an instance of this metamodel — describes the desired
// configuration of a platform: which layers exist, the actions and handlers
// of the Controller and Broker layers, command classification metadata,
// policies, and the autonomic manager's symptoms and change plans.
//
// The runtime package's component factory consumes validated middleware
// models to instantiate live platforms; this package also provides a
// Builder so middleware engineers can author models in code, and the JSON
// codec in the metamodel package lets them be stored and exchanged.
package mwmeta

import (
	"sync"

	"github.com/mddsm/mddsm/internal/metamodel"
)

// Name is the metamodel identity recorded in conforming models.
const Name = "mddsm-middleware"

// Class names of the middleware metamodel.
const (
	ClassPlatform        = "Platform"
	ClassLayer           = "Layer"
	ClassUILayer         = "UILayer"
	ClassSynthesisLayer  = "SynthesisLayer"
	ClassControllerLayer = "ControllerLayer"
	ClassBrokerLayer     = "BrokerLayer"
	ClassAction          = "Action"
	ClassEventAction     = "EventAction"
	ClassStep            = "Step"
	ClassArg             = "Arg"
	ClassCommandClass    = "CommandClass"
	ClassPolicy          = "Policy"
	ClassEffect          = "Effect"
	ClassSymptom         = "Symptom"
	ClassChangePlan      = "ChangePlan"
	ClassResourceBinding = "ResourceBinding"
)

// MM returns the middleware metamodel. It is built once and shared by
// every caller — platform builds, definition checks and restores all
// validate against one instance, which compiles its conformance validator
// once — so callers must not mutate it. It always validates.
func MM() *metamodel.Metamodel { return shared() }

var shared = sync.OnceValue(build)

// build constructs the middleware metamodel.
func build() *metamodel.Metamodel {
	m := metamodel.New(Name)

	m.MustAddClass(&metamodel.Class{Name: ClassPlatform,
		Attributes: []metamodel.Attribute{
			{Name: "name", Kind: metamodel.KindString, Required: true},
			{Name: "domain", Kind: metamodel.KindString},
		},
		References: []metamodel.Reference{
			{Name: "layers", Target: ClassLayer, Containment: true, Many: true, Required: true},
		},
	})
	m.MustAddClass(&metamodel.Class{Name: ClassLayer, Abstract: true,
		Attributes: []metamodel.Attribute{
			{Name: "name", Kind: metamodel.KindString, Required: true},
		},
	})
	m.MustAddClass(&metamodel.Class{Name: ClassUILayer, Super: ClassLayer})
	m.MustAddClass(&metamodel.Class{Name: ClassSynthesisLayer, Super: ClassLayer,
		Attributes: []metamodel.Attribute{
			// ltsName selects the labeled transition system from the DSK
			// bundle that encodes the domain synthesis semantics.
			{Name: "ltsName", Kind: metamodel.KindString, Required: true},
		},
	})
	m.MustAddClass(&metamodel.Class{Name: ClassControllerLayer, Super: ClassLayer,
		Attributes: []metamodel.Attribute{
			{Name: "maxDepth", Kind: metamodel.KindInt, Default: 16},
			{Name: "cacheEnabled", Kind: metamodel.KindBool, Default: true},
		},
		References: []metamodel.Reference{
			{Name: "actions", Target: ClassAction, Containment: true, Many: true},
			{Name: "eventActions", Target: ClassEventAction, Containment: true, Many: true},
			{Name: "classes", Target: ClassCommandClass, Containment: true, Many: true},
			{Name: "policies", Target: ClassPolicy, Containment: true, Many: true},
		},
	})
	m.MustAddClass(&metamodel.Class{Name: ClassBrokerLayer, Super: ClassLayer,
		References: []metamodel.Reference{
			{Name: "actions", Target: ClassAction, Containment: true, Many: true},
			{Name: "eventActions", Target: ClassEventAction, Containment: true, Many: true},
			{Name: "symptoms", Target: ClassSymptom, Containment: true, Many: true},
			{Name: "changePlans", Target: ClassChangePlan, Containment: true, Many: true},
			{Name: "bindings", Target: ClassResourceBinding, Containment: true, Many: true},
		},
	})
	m.MustAddClass(&metamodel.Class{Name: ClassAction,
		Attributes: []metamodel.Attribute{
			{Name: "name", Kind: metamodel.KindString, Required: true},
			// ops is a comma-separated operation list ("openStream,play").
			{Name: "ops", Kind: metamodel.KindString, Required: true},
			{Name: "guard", Kind: metamodel.KindString},
			{Name: "forwardArgs", Kind: metamodel.KindBool, Default: false},
		},
		References: []metamodel.Reference{
			{Name: "steps", Target: ClassStep, Containment: true, Many: true},
		},
	})
	m.MustAddClass(&metamodel.Class{Name: ClassEventAction,
		Attributes: []metamodel.Attribute{
			{Name: "name", Kind: metamodel.KindString, Required: true},
			{Name: "event", Kind: metamodel.KindString, Required: true},
			{Name: "guard", Kind: metamodel.KindString},
			{Name: "forward", Kind: metamodel.KindBool, Default: false},
			// scriptName selects an installed script from the DSK bundle
			// (Controller layer only).
			{Name: "scriptName", Kind: metamodel.KindString},
		},
		References: []metamodel.Reference{
			{Name: "steps", Target: ClassStep, Containment: true, Many: true},
		},
	})
	m.MustAddClass(&metamodel.Class{Name: ClassStep,
		Attributes: []metamodel.Attribute{
			{Name: "op", Kind: metamodel.KindString, Required: true},
			{Name: "target", Kind: metamodel.KindString},
			{Name: "order", Kind: metamodel.KindInt, Required: true},
		},
		References: []metamodel.Reference{
			{Name: "args", Target: ClassArg, Containment: true, Many: true},
		},
	})
	m.MustAddClass(&metamodel.Class{Name: ClassArg,
		Attributes: []metamodel.Attribute{
			{Name: "key", Kind: metamodel.KindString, Required: true},
			{Name: "value", Kind: metamodel.KindString, Required: true},
		},
	})
	m.MustAddClass(&metamodel.Class{Name: ClassCommandClass,
		Attributes: []metamodel.Attribute{
			{Name: "op", Kind: metamodel.KindString, Required: true},
			{Name: "goalDsc", Kind: metamodel.KindString, Required: true},
		},
	})
	m.MustAddClass(&metamodel.Class{Name: ClassPolicy,
		Attributes: []metamodel.Attribute{
			{Name: "name", Kind: metamodel.KindString, Required: true},
			{Name: "priority", Kind: metamodel.KindInt, Default: 0},
			{Name: "condition", Kind: metamodel.KindString, Required: true},
		},
		References: []metamodel.Reference{
			{Name: "effects", Target: ClassEffect, Containment: true, Many: true},
		},
	})
	m.MustAddClass(&metamodel.Class{Name: ClassEffect,
		Attributes: []metamodel.Attribute{
			{Name: "key", Kind: metamodel.KindString, Required: true},
			// value uses the command-argument scalar syntax: numbers and
			// true/false keep their types, anything else is a string.
			{Name: "value", Kind: metamodel.KindString, Required: true},
		},
	})
	m.MustAddClass(&metamodel.Class{Name: ClassSymptom,
		Attributes: []metamodel.Attribute{
			{Name: "name", Kind: metamodel.KindString, Required: true},
			{Name: "condition", Kind: metamodel.KindString, Required: true},
		},
	})
	m.MustAddClass(&metamodel.Class{Name: ClassChangePlan,
		Attributes: []metamodel.Attribute{
			{Name: "symptom", Kind: metamodel.KindString, Required: true},
		},
		References: []metamodel.Reference{
			{Name: "steps", Target: ClassStep, Containment: true, Many: true},
		},
	})
	m.MustAddClass(&metamodel.Class{Name: ClassResourceBinding,
		Attributes: []metamodel.Attribute{
			{Name: "op", Kind: metamodel.KindString, Required: true},
			{Name: "adapter", Kind: metamodel.KindString, Required: true},
		},
	})

	if err := m.Validate(); err != nil {
		// The metamodel is static program data; failing to validate is a
		// programming bug.
		panic(err)
	}
	return m
}
