// Communication example: drive the CVM (paper §IV-A) through a multi-party
// session lifecycle — establishment, media upgrade, an attachment, a
// transport failure with automatic recovery, and teardown — all expressed
// as CML model updates.
//
//	go run ./examples/communication
package main

import (
	"fmt"
	"log"

	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/domains/cml"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	vm, err := cml.New(domains.Config{})
	if err != nil {
		return err
	}

	fmt.Println("== establish a two-party audio session ==")
	d := vm.Platform.UI.NewDraft()
	d.MustAdd("alice", "Person").SetAttr("name", "Alice")
	d.MustAdd("bob", "Person").SetAttr("name", "Bob")
	d.MustAdd("s1", "Session").
		SetAttr("topic", "standup").
		SetRef("participants", "alice", "bob").
		SetRef("streams", "audio1")
	d.MustAdd("audio1", "Stream").
		SetAttr("media", "audio").
		SetAttr("bandwidth", 64).
		SetAttr("session", "s1")
	if _, err := d.Submit(); err != nil {
		return err
	}
	printSession(vm)

	fmt.Println("== upgrade to video and add carol ==")
	edit := vm.Platform.UI.EditDraft()
	edit.MustAdd("carol", "Person").SetAttr("name", "Carol")
	edit.Object("s1").AddRef("participants", "carol")
	edit.Object("audio1").SetAttr("media", "video").SetAttr("bandwidth", 384)
	if _, err := edit.Submit(); err != nil {
		return err
	}
	printSession(vm)

	fmt.Println("== share an attachment ==")
	edit = vm.Platform.UI.EditDraft()
	edit.MustAdd("deck", "Attachment").
		SetAttr("name", "slides.pdf").
		SetAttr("sizeKB", 420).
		SetAttr("stream", "audio1").
		SetAttr("session", "s1")
	edit.Object("audio1").AddRef("attachments", "deck")
	if _, err := edit.Submit(); err != nil {
		return err
	}

	fmt.Println("== inject a stream failure; the middleware recovers ==")
	if err := vm.Service.InjectStreamFailure("s1", "audio1"); err != nil {
		return err
	}
	printSession(vm)

	fmt.Println("== teardown ==")
	if _, err := vm.Platform.UI.NewDraft().Submit(); err != nil {
		return err
	}
	fmt.Printf("open sessions: %v\n\n", vm.Service.SessionIDs())

	fmt.Println("== full service trace ==")
	fmt.Println(vm.Service.Trace())
	stats := vm.Platform.Controller.Stats()
	fmt.Printf("\nUCM stats: %d commands, %d via predefined actions, %d via intent models (%d generated, %d cache hits)\n",
		stats.Commands, stats.Case1, stats.Case2, stats.Generated, stats.CacheHits)
	return nil
}

func printSession(vm *cml.CVM) {
	sess := vm.Service.Session("s1")
	if sess == nil {
		fmt.Println("  (no session)")
		return
	}
	fmt.Printf("  participants: %v\n", sess.Participants())
	for _, id := range sess.Streams() {
		st := sess.Stream(id)
		fmt.Printf("  stream %s: media=%s bandwidth=%v up=%v\n", id, st.Media, st.Bandwidth, st.Up)
	}
	fmt.Println()
}
