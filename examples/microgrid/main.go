// Microgrid example: run MGridVM (paper §IV-B) over a simulated home
// plant — provisioning from a model, policy-driven energy balancing via
// intent-model generation, and autonomic load shedding when the battery
// reserve runs low.
//
//	go run ./examples/microgrid
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/domains/mgrid"
	"github.com/mddsm/mddsm/internal/script"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	vm, err := mgrid.New(domains.Config{})
	if err != nil {
		return err
	}

	fmt.Println("== provision the home plant from an MGridML model ==")
	d := vm.Platform.UI.NewDraft()
	d.MustAdd("home", "Microgrid").
		SetAttr("name", "Casa Verde").
		SetRef("devices", "solar", "battery", "load", "gridtie").
		SetRef("policies", "reserve")
	d.MustAdd("solar", "DeviceCfg").SetAttr("kind", "solar").SetAttr("capacity", 5).SetAttr("output", 3)
	d.MustAdd("battery", "DeviceCfg").SetAttr("kind", "battery").SetAttr("capacity", 10)
	d.MustAdd("load", "DeviceCfg").SetAttr("kind", "load").SetAttr("capacity", 8).SetAttr("output", -5)
	d.MustAdd("gridtie", "DeviceCfg").SetAttr("kind", "gridtie").SetAttr("capacity", 20)
	d.MustAdd("reserve", "EnergyPolicy").SetAttr("name", "keep-reserve").SetAttr("reserve", 0.3)
	if _, err := d.Submit(); err != nil {
		return err
	}
	printTelemetry(vm)

	fmt.Println("== balance the 2 kW deficit (cost-optimal: grid import) ==")
	if err := vm.Platform.Execute(script.New("bal1").Append(
		script.NewCommand("balance", "grid").WithArg("headroom", 2))); err != nil {
		return err
	}
	printTelemetry(vm)

	fmt.Println("== green mode: the policy prefers battery-first balancing ==")
	vm.Platform.Controller.Context().Set("greenMode", true)
	if err := vm.Platform.Execute(script.New("bal2").Append(
		script.NewCommand("balance", "grid").WithArg("headroom", 2))); err != nil {
		return err
	}
	printTelemetry(vm)

	fmt.Println("== run 90 virtual minutes; the autonomic manager sheds load when the battery reserve is hit ==")
	vm.SetReserve(3)
	for i := 0; i < 3; i++ {
		vm.Plant.Tick(30 * time.Minute)
		if err := vm.SyncTelemetry(); err != nil {
			return err
		}
		tel := vm.Plant.Telemetry()
		fmt.Printf("  +%2d min: battery=%.1f kWh consumption=%.1f kW\n", (i+1)*30, tel.BatteryCharge, tel.Consumption)
	}
	for _, req := range vm.Platform.Broker.Autonomic().Handled() {
		fmt.Printf("  autonomic change executed: %s (request #%d)\n", req.Symptom, req.Seq)
	}

	fmt.Println("\n== plant command trace ==")
	fmt.Println(vm.Plant.Trace())
	return nil
}

func printTelemetry(vm *mgrid.MGridVM) {
	tel := vm.Plant.Telemetry()
	fmt.Printf("  generation=%.1f kW consumption=%.1f kW grid-import=%.1f kW battery=%.1f kWh\n\n",
		tel.Generation, tel.Consumption, tel.GridImport, tel.BatteryCharge)
}
