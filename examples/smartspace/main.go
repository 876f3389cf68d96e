// Smart-space example: run 2SVM (paper §IV-C) — a central controller node
// holding the top layers, layer-suppressed node platforms on each smart
// object, and rules (ubiquitous applications) whose execution is triggered
// by objects entering and leaving the space.
//
//	go run ./examples/smartspace
package main

import (
	"fmt"
	"log"

	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/domains/smartspace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	vm, err := smartspace.New(domains.Config{})
	if err != nil {
		return err
	}

	fmt.Println("== model the space: objects + welcome/goodbye rules ==")
	d := vm.Platform.UI.NewDraft()
	d.MustAdd("ana", "User").SetAttr("name", "Ana")
	d.MustAdd("lamp1", "ObjectDecl").SetAttr("kind", "lamp")
	d.MustAdd("speaker1", "ObjectDecl").SetAttr("kind", "speaker")
	d.MustAdd("welcome", "Rule").
		SetAttr("onEvent", "objectEntered").
		SetAttr("subject", "badge-ana").
		SetAttr("targetObject", "lamp1").
		SetAttr("prop", "on").
		SetAttr("value", "true")
	d.MustAdd("announce", "Rule").
		SetAttr("onEvent", "objectEntered").
		SetAttr("subject", "badge-ana").
		SetAttr("targetObject", "speaker1").
		SetAttr("prop", "nowPlaying").
		SetAttr("value", "welcome-chime")
	d.MustAdd("goodbye", "Rule").
		SetAttr("onEvent", "objectLeft").
		SetAttr("subject", "badge-ana").
		SetAttr("targetObject", "lamp1").
		SetAttr("prop", "on").
		SetAttr("value", "false")
	if _, err := d.Submit(); err != nil {
		return err
	}

	fmt.Println("== devices come online (each spawns a two-layer node platform) ==")
	for _, obj := range []struct{ id, kind string }{
		{"lamp1", "lamp"}, {"speaker1", "speaker"},
	} {
		if err := vm.Hub.ObjectEnters(obj.id, obj.kind); err != nil {
			return err
		}
	}
	fmt.Printf("  node platforms running: %d\n\n", vm.Hub.NodeCount())

	fmt.Println("== Ana walks in ==")
	if err := vm.Hub.ObjectEnters("badge-ana", "badge"); err != nil {
		return err
	}
	printObjects(vm)

	fmt.Println("== Ana leaves ==")
	if err := vm.Hub.ObjectLeaves("badge-ana"); err != nil {
		return err
	}
	printObjects(vm)

	fmt.Println("== space trace ==")
	fmt.Println(vm.Hub.Space().Trace())
	return nil
}

func printObjects(vm *smartspace.SSVM) {
	for _, id := range vm.Hub.Space().Known() {
		o, _ := vm.Hub.Space().Object(id)
		fmt.Printf("  %s (%s) present=%v", id, o.Kind, o.Present)
		for _, p := range o.PropNames() {
			v, _ := o.Prop(p)
			fmt.Printf(" %s=%v", p, v)
		}
		fmt.Println()
	}
	fmt.Println()
}
