// Smart conference room: two domain-specific middleware platforms — a 2SVM
// smart space and a CVM communication platform — composed through an
// interoperability bridge (the §IX research direction, after Bencomo et
// al.). When a participant's badge enters the room, the bridge joins them
// to the conference call; when the badge leaves, it removes them. The room
// itself reacts through 2SML rules (the lamp tracks occupancy).
//
//	go run ./examples/smartconference
package main

import (
	"fmt"
	"log"

	"github.com/mddsm/mddsm/internal/bridge"
	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/domains/cml"
	"github.com/mddsm/mddsm/internal/domains/smartspace"
	"github.com/mddsm/mddsm/internal/script"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	room, err := smartspace.New(domains.Config{})
	if err != nil {
		return err
	}
	cvm, err := cml.New(domains.Config{})
	if err != nil {
		return err
	}

	fmt.Println("== model the room (2SML): occupancy rules for the lamp ==")
	roomModel := room.Platform.UI.NewDraft()
	roomModel.MustAdd("lamp1", "ObjectDecl").SetAttr("kind", "lamp")
	roomModel.MustAdd("lightsOn", "Rule").
		SetAttr("onEvent", "objectEntered").SetAttr("subject", "badge-ana").
		SetAttr("targetObject", "lamp1").SetAttr("prop", "on").SetAttr("value", "true")
	roomModel.MustAdd("lightsOff", "Rule").
		SetAttr("onEvent", "objectLeft").SetAttr("subject", "badge-ana").
		SetAttr("targetObject", "lamp1").SetAttr("prop", "on").SetAttr("value", "false")
	if _, err := roomModel.Submit(); err != nil {
		return err
	}

	fmt.Println("== model the conference (CML): an empty session with an audio bridge ==")
	call := cvm.Platform.UI.NewDraft()
	call.MustAdd("conf", "Session").SetAttr("topic", "weekly sync").SetRef("streams", "mix")
	call.MustAdd("mix", "Stream").
		SetAttr("media", "audio").SetAttr("bandwidth", 128).SetAttr("session", "conf")
	if _, err := call.Submit(); err != nil {
		return err
	}

	fmt.Println("== wire the bridge: room events drive the call ==")
	b := bridge.New("room-to-call").
		AddRule(bridge.MapRule("join", "objectEntered", "contains(object, 'badge-')",
			script.Template{Op: "addParticipant", Target: "session:conf",
				Args: map[string]string{"who": "{object}"}},
			bridge.PlatformTarget(cvm.Platform))).
		AddRule(bridge.MapRule("leave", "objectLeft", "contains(object, 'badge-')",
			script.Template{Op: "removeParticipant", Target: "session:conf",
				Args: map[string]string{"who": "{object}"}},
			bridge.PlatformTarget(cvm.Platform)))
	b.Attach(room.Platform)

	fmt.Println("\n== Ana and Bruno walk in; a cart rolls through ==")
	for _, obj := range []struct{ id, kind string }{
		{"lamp1", "lamp"},
		{"badge-ana", "badge"},
		{"badge-bruno", "badge"},
		{"cart-7", "cart"}, // not a badge: the bridge ignores it
	} {
		if err := room.Hub.ObjectEnters(obj.id, obj.kind); err != nil {
			return err
		}
	}
	printState(room, cvm)

	fmt.Println("== Ana leaves ==")
	if err := room.Hub.ObjectLeaves("badge-ana"); err != nil {
		return err
	}
	printState(room, cvm)

	if fails := b.Failures(); len(fails) > 0 {
		fmt.Println("bridge failures:", fails)
	} else {
		fmt.Println("bridge failures: none")
	}
	return nil
}

func printState(room *smartspace.SSVM, cvm *cml.CVM) {
	lamp, _ := room.Hub.Space().Object("lamp1")
	on, _ := lamp.Prop("on")
	fmt.Printf("  room: lamp on=%v, present=%v\n", on, room.Hub.Space().Present())
	if sess := cvm.Service.Session("conf"); sess != nil {
		fmt.Printf("  call: participants=%v\n\n", sess.Participants())
	}
}
