package microgrid

import (
	"strings"
	"testing"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
)

func plant(t *testing.T) (*Plant, *[]broker.Event) {
	t.Helper()
	var events []broker.Event
	p := NewPlant(nil, func(e broker.Event) { events = append(events, e) })
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(p.RegisterDevice("solar1", Solar, 5))
	must(p.RegisterDevice("bat1", Battery, 10))
	must(p.RegisterDevice("load1", Load, 8))
	must(p.SetOnline("solar1", true))
	must(p.SetOnline("bat1", true))
	must(p.SetOnline("load1", true))
	events = events[:0]
	return p, &events
}

func TestRegisterErrors(t *testing.T) {
	p := NewPlant(nil, nil)
	if err := p.RegisterDevice("d", DeviceKind("fusion"), 1); err == nil {
		t.Error("invalid kind")
	}
	if err := p.RegisterDevice("d", Solar, 0); err == nil {
		t.Error("zero capacity")
	}
	if err := p.RegisterDevice("d", Solar, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterDevice("d", Solar, 1); err == nil {
		t.Error("duplicate")
	}
}

func TestBatteryStartsHalfCharged(t *testing.T) {
	p, _ := plant(t)
	d, ok := p.Device("bat1")
	if !ok || d.Charge != 5 {
		t.Fatalf("battery charge: %+v", d)
	}
}

func TestOutputAndTelemetry(t *testing.T) {
	p, _ := plant(t)
	if err := p.SetOutput("solar1", 4); err != nil {
		t.Fatal(err)
	}
	if err := p.SetOutput("load1", -6); err != nil {
		t.Fatal(err)
	}
	if err := p.SetOutput("bat1", 2); err != nil { // discharging
		t.Fatal(err)
	}
	tel := p.Telemetry()
	if tel.Generation != 6 { // 4 solar + 2 battery discharge
		t.Errorf("generation: %v", tel.Generation)
	}
	if tel.Consumption != 6 {
		t.Errorf("consumption: %v", tel.Consumption)
	}
	if tel.GridImport != 0 {
		t.Errorf("grid import: %v", tel.GridImport)
	}
	if tel.BatteryCharge != 5 {
		t.Errorf("battery charge: %v", tel.BatteryCharge)
	}
}

func TestChargingBatteryCountsAsConsumption(t *testing.T) {
	p, _ := plant(t)
	if err := p.SetOutput("bat1", -3); err != nil { // charging
		t.Fatal(err)
	}
	tel := p.Telemetry()
	if tel.Consumption != 3 || tel.GridImport != 3 {
		t.Errorf("telemetry: %+v", tel)
	}
}

func TestSetOutputErrors(t *testing.T) {
	p, _ := plant(t)
	if err := p.SetOutput("ghost", 1); err == nil {
		t.Error("unknown device")
	}
	if err := p.SetOutput("solar1", 99); err == nil {
		t.Error("over capacity")
	}
	if err := p.SetOnline("solar1", false); err != nil {
		t.Fatal(err)
	}
	if err := p.SetOutput("solar1", 1); err == nil {
		t.Error("offline device")
	}
	if err := p.SetOnline("ghost", true); err == nil {
		t.Error("unknown device online")
	}
}

func TestOfflineZeroesOutput(t *testing.T) {
	p, events := plant(t)
	if err := p.SetOutput("solar1", 4); err != nil {
		t.Fatal(err)
	}
	if err := p.SetOnline("solar1", false); err != nil {
		t.Fatal(err)
	}
	d, _ := p.Device("solar1")
	if d.Output != 0 || d.Online {
		t.Errorf("offline device: %+v", d)
	}
	found := false
	for _, e := range *events {
		if e.Name == "deviceOffline" && e.Str("device") == "solar1" {
			found = true
		}
	}
	if !found {
		t.Error("deviceOffline event missing")
	}
}

func TestShedLoad(t *testing.T) {
	p, _ := plant(t)
	if err := p.SetOutput("load1", -6); err != nil {
		t.Fatal(err)
	}
	if err := p.ShedLoad("load1", 2); err != nil {
		t.Fatal(err)
	}
	d, _ := p.Device("load1")
	if d.Output != -2 {
		t.Errorf("shed output: %v", d.Output)
	}
	if err := p.ShedLoad("load1", 5); err == nil {
		t.Error("shed must reduce draw")
	}
	if err := p.ShedLoad("solar1", 1); err == nil {
		t.Error("shed on non-load")
	}
	if err := p.ShedLoad("ghost", 1); err == nil {
		t.Error("shed unknown")
	}
}

func TestTickBatteryDrainAndLowEvent(t *testing.T) {
	p, events := plant(t)
	if err := p.SetOutput("bat1", 4); err != nil { // discharge at 4kW from 5kWh
		t.Fatal(err)
	}
	p.Tick(30 * time.Minute) // -2 kWh -> 3 kWh (30% > 20% threshold)
	if len(*events) != 0 {
		t.Fatalf("no event expected yet: %v", *events)
	}
	p.Tick(30 * time.Minute) // -2 kWh -> 1 kWh (10% < 20%)
	var low int
	for _, e := range *events {
		if e.Name == "batteryLow" {
			low++
		}
	}
	if low != 1 {
		t.Fatalf("batteryLow events: %d", low)
	}
	// Draining to empty clamps and stops output.
	p.Tick(2 * time.Hour)
	d, _ := p.Device("bat1")
	if d.Charge != 0 || d.Output != 0 {
		t.Errorf("drained battery: %+v", d)
	}
}

func TestTickOverchargeClamps(t *testing.T) {
	p, _ := plant(t)
	if err := p.SetOutput("bat1", -5); err != nil { // charge at 5kW
		t.Fatal(err)
	}
	p.Tick(4 * time.Hour)
	d, _ := p.Device("bat1")
	if d.Charge != 10 || d.Output != 0 {
		t.Errorf("full battery: %+v", d)
	}
}

func TestTraceRecordsCommands(t *testing.T) {
	p, _ := plant(t)
	if err := p.SetOutput("solar1", 3); err != nil {
		t.Fatal(err)
	}
	tr := p.Trace().String()
	for _, want := range []string{"registerDevice device:solar1", "setOnline device:bat1", "setOutput device:solar1 kw=3"} {
		if !strings.Contains(tr, want) {
			t.Errorf("trace missing %q:\n%s", want, tr)
		}
	}
}

func TestDeviceQueries(t *testing.T) {
	p, _ := plant(t)
	if _, ok := p.Device("ghost"); ok {
		t.Error("ghost device")
	}
	ids := p.DeviceIDs()
	if strings.Join(ids, ",") != "bat1,load1,solar1" {
		t.Errorf("DeviceIDs: %v", ids)
	}
	if !ValidKind(GridTie) || ValidKind("x") {
		t.Error("ValidKind")
	}
}
