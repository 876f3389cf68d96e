package mgrid

import (
	"strings"
	"testing"
	"time"

	"github.com/mddsm/mddsm/internal/core"
	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/lts"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/resources/microgrid"
	"github.com/mddsm/mddsm/internal/script"
)

func TestDefinitionValidates(t *testing.T) {
	def := core.Definition{
		Name:       "mgridvm",
		DSML:       Metamodel(),
		Middleware: MiddlewareModel(),
		DSK: core.DSK{
			Taxonomy:   Taxonomy(),
			Procedures: Procedures(),
			LTSes:      map[string]*lts.LTS{LTSName: SynthesisLTS()},
		},
	}
	if err := def.Validate(); err != nil {
		t.Fatalf("MGridVM definition must validate: %v", err)
	}
}

func homeModel(vm *MGridVM, t *testing.T) *metamodel.Model {
	t.Helper()
	d := vm.Platform.UI.NewDraft()
	d.MustAdd("home", "Microgrid").
		SetAttr("name", "Casa").
		SetRef("devices", "solar", "battery", "load", "gridtie").
		SetRef("policies", "reserve")
	d.MustAdd("solar", "DeviceCfg").
		SetAttr("kind", "solar").SetAttr("capacity", 5).SetAttr("output", 3)
	d.MustAdd("battery", "DeviceCfg").
		SetAttr("kind", "battery").SetAttr("capacity", 10)
	d.MustAdd("load", "DeviceCfg").
		SetAttr("kind", "load").SetAttr("capacity", 8).SetAttr("output", -4)
	d.MustAdd("gridtie", "DeviceCfg").
		SetAttr("kind", "gridtie").SetAttr("capacity", 20)
	d.MustAdd("reserve", "EnergyPolicy").
		SetAttr("name", "battery-reserve").SetAttr("reserve", 0.25)
	return d.Model()
}

func newVM(t *testing.T) *MGridVM {
	t.Helper()
	vm, err := New(domains.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestModelProvisionsPlant(t *testing.T) {
	vm := newVM(t)
	if _, err := vm.Platform.SubmitModel(homeModel(vm, t)); err != nil {
		t.Fatal(err)
	}
	ids := vm.Plant.DeviceIDs()
	if strings.Join(ids, ",") != "battery,gridtie,load,solar" {
		t.Fatalf("devices: %v", ids)
	}
	solar, _ := vm.Plant.Device("solar")
	if !solar.Online || solar.Output != 3 {
		t.Errorf("solar: %+v", solar)
	}
	load, _ := vm.Plant.Device("load")
	if load.Output != -4 {
		t.Errorf("load: %+v", load)
	}
	tel := vm.Plant.Telemetry()
	if tel.Generation != 3 || tel.Consumption != 4 || tel.GridImport != 1 {
		t.Errorf("telemetry: %+v", tel)
	}
}

func TestModelUpdateRedispatches(t *testing.T) {
	vm := newVM(t)
	if _, err := vm.Platform.SubmitModel(homeModel(vm, t)); err != nil {
		t.Fatal(err)
	}
	edit := vm.Platform.UI.EditDraft()
	edit.Object("solar").SetAttr("output", 5)
	edit.Object("load").SetAttr("online", false)
	if _, err := edit.Submit(); err != nil {
		t.Fatal(err)
	}
	solar, _ := vm.Plant.Device("solar")
	if solar.Output != 5 {
		t.Errorf("solar redispatch: %+v", solar)
	}
	load, _ := vm.Plant.Device("load")
	if load.Online {
		t.Errorf("load must be off: %+v", load)
	}
}

func TestDeviceDecommission(t *testing.T) {
	vm := newVM(t)
	if _, err := vm.Platform.SubmitModel(homeModel(vm, t)); err != nil {
		t.Fatal(err)
	}
	edit := vm.Platform.UI.EditDraft()
	if err := edit.Remove("load"); err != nil {
		t.Fatal(err)
	}
	if _, err := edit.Submit(); err != nil {
		t.Fatal(err)
	}
	load, _ := vm.Plant.Device("load")
	if load.Online {
		t.Error("decommissioned device must be offline")
	}
}

func TestBalanceViaIntentGeneration(t *testing.T) {
	vm := newVM(t)
	if _, err := vm.Platform.SubmitModel(homeModel(vm, t)); err != nil {
		t.Fatal(err)
	}
	// Default (no green mode): cost-optimal balance = grid-first.
	s := script.New("bal").Append(
		script.NewCommand("balance", "grid").WithArg("headroom", 2),
	)
	if err := vm.Platform.Execute(s); err != nil {
		t.Fatal(err)
	}
	gt, _ := vm.Plant.Device("gridtie")
	if gt.Output != 2 {
		t.Errorf("grid import expected: %+v", gt)
	}

	// Green mode prefers the battery-first strategy.
	vm.Platform.Controller.Context().Set("greenMode", true)
	s2 := script.New("bal2").Append(
		script.NewCommand("balance", "grid").WithArg("headroom", 1.5),
	)
	if err := vm.Platform.Execute(s2); err != nil {
		t.Fatal(err)
	}
	bat, _ := vm.Plant.Device("battery")
	if bat.Output != 1.5 {
		t.Errorf("battery discharge expected: %+v", bat)
	}
	if vm.Platform.Controller.Stats().Case2 != 2 {
		t.Errorf("stats: %+v", vm.Platform.Controller.Stats())
	}
}

func TestAutonomicLoadShedding(t *testing.T) {
	vm := newVM(t)
	if _, err := vm.Platform.SubmitModel(homeModel(vm, t)); err != nil {
		t.Fatal(err)
	}
	vm.SetReserve(3) // shed when the battery drops under 3 kWh
	// Discharge the battery hard.
	s := script.New("drain").Append(
		script.NewCommand("dispatchOutput", "device:battery").WithArg("kw", 5),
	)
	if err := vm.Platform.Execute(s); err != nil {
		t.Fatal(err)
	}
	vm.Plant.Tick(30 * time.Minute) // 5 kWh -> 2.5 kWh
	if err := vm.SyncTelemetry(); err != nil {
		t.Fatal(err)
	}
	load, _ := vm.Plant.Device("load")
	if load.Output != -1 {
		t.Errorf("autonomic shedding should cap the load at 1 kW: %+v", load)
	}
	handled := vm.Platform.Broker.Autonomic().Handled()
	if len(handled) != 1 || handled[0].Symptom != "batteryReserveLow" {
		t.Errorf("autonomic requests: %+v", handled)
	}
}

func TestAdapterErrors(t *testing.T) {
	plant := microgrid.NewPlant(nil, nil)
	a := NewAdapter(plant)
	if err := a.Execute(script.NewCommand("mystery", "device:x")); err == nil {
		t.Error("unknown op must fail")
	}
	if err := a.Execute(script.NewCommand("setOutput", "device:ghost").WithArg("kw", 1)); err == nil {
		t.Error("unknown device must fail")
	}
	if deviceID("device:x") != "x" || deviceID("bare") != "bare" {
		t.Error("deviceID")
	}
}

func TestCoverageComplete(t *testing.T) {
	def := core.Definition{
		Name: "mgridvm", DSML: Metamodel(), Middleware: MiddlewareModel(),
		DSK: core.DSK{
			Taxonomy: Taxonomy(), Procedures: Procedures(),
			LTSes: map[string]*lts.LTS{LTSName: SynthesisLTS()},
		},
	}
	cov, err := core.AnalyzeCoverage(def)
	if err != nil {
		t.Fatal(err)
	}
	if !cov.Complete() {
		t.Fatalf("MGridVM coverage incomplete: %v", cov.UnroutableOps)
	}
}

// TestDaySimulation runs a 24-virtual-hour day against the MGridVM:
// a solar curve drives generation, the household load varies, the user's
// model is edited mid-day, and the autonomic manager protects the battery
// reserve overnight. It exercises the full platform loop (model updates,
// telemetry sync, symptom handling) over an extended horizon.
func TestDaySimulation(t *testing.T) {
	vm := newVM(t)
	if _, err := vm.Platform.SubmitModel(homeModel(vm, t)); err != nil {
		t.Fatal(err)
	}
	vm.SetReserve(2)

	// Piecewise solar curve (kW per 2-hour slot) and household draw.
	solar := []float64{0, 0, 0, 1, 3, 5, 5, 4, 2, 0, 0, 0}
	draw := []float64{-1, -1, -1, -2, -2, -3, -3, -4, -5, -5, -3, -2}

	for slot := 0; slot < 12; slot++ {
		edit := vm.Platform.UI.EditDraft()
		edit.Object("solar").SetAttr("output", solar[slot])
		edit.Object("load").SetAttr("output", draw[slot])
		if _, err := edit.Submit(); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		// Cover any deficit: battery discharges; surplus charges it.
		tel := vm.Plant.Telemetry()
		gap := tel.Consumption - tel.Generation
		bat, _ := vm.Plant.Device("battery")
		kw := gap
		if kw > bat.Capacity {
			kw = bat.Capacity
		}
		if kw < -bat.Capacity {
			kw = -bat.Capacity
		}
		s := script.New("dispatch").Append(
			script.NewCommand("dispatchOutput", "device:battery").WithArg("kw", kw))
		if err := vm.Platform.Execute(s); err != nil {
			t.Fatalf("slot %d dispatch: %v", slot, err)
		}
		vm.Plant.Tick(2 * time.Hour)
		if err := vm.SyncTelemetry(); err != nil {
			t.Fatalf("slot %d telemetry: %v", slot, err)
		}
	}

	// Over the day the battery was stressed; the reserve symptom must have
	// fired at least once and shed the load.
	handled := vm.Platform.Broker.Autonomic().Handled()
	if len(handled) == 0 {
		t.Fatal("expected at least one autonomic intervention over the day")
	}
	bat, _ := vm.Plant.Device("battery")
	if bat.Charge < 0 || bat.Charge > bat.Capacity {
		t.Errorf("battery out of bounds: %+v", bat)
	}
	// The platform's runtime model still matches the last submission.
	if vm.Platform.UI.RuntimeModel().Len() != 6 {
		t.Errorf("runtime model size: %d", vm.Platform.UI.RuntimeModel().Len())
	}
}

func TestStartMonitoring(t *testing.T) {
	vm := newVM(t)
	if _, err := vm.Platform.SubmitModel(homeModel(vm, t)); err != nil {
		t.Fatal(err)
	}
	vm.SetReserve(3)
	s := script.New("drain").Append(
		script.NewCommand("dispatchOutput", "device:battery").WithArg("kw", 5))
	if err := vm.Platform.Execute(s); err != nil {
		t.Fatal(err)
	}
	vm.Plant.Tick(time.Hour) // 5 kWh -> 0 kWh: deep under the reserve
	vm.StartMonitoring(2 * time.Millisecond)
	defer vm.Platform.Stop()
	deadline := time.After(2 * time.Second)
	for len(vm.Platform.Broker.Autonomic().Handled()) == 0 {
		select {
		case <-deadline:
			t.Fatal("monitor never fired the reserve plan")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	load, _ := vm.Plant.Device("load")
	if load.Output != -1 {
		t.Errorf("load after autonomic shedding: %+v", load)
	}
}
