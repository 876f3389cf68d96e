// Package microgrid simulates the smart-microgrid plant that MGridVM's
// Microgrid Hardware Broker controls (paper §IV-B): plant controllers and
// devices (solar arrays, batteries, loads, a grid tie) with telemetry and
// atomic command interfaces. It replaces the physical controllers of the
// original prototype with a deterministic simulation exposing the identical
// broker-facing surface.
package microgrid

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/script"
	"github.com/mddsm/mddsm/internal/simtime"
)

// DeviceKind enumerates plant device types.
type DeviceKind string

// Plant device kinds.
const (
	Solar   DeviceKind = "solar"
	Battery DeviceKind = "battery"
	Load    DeviceKind = "load"
	GridTie DeviceKind = "gridtie"
)

// ValidKind reports whether k is a known device kind.
func ValidKind(k DeviceKind) bool {
	switch k {
	case Solar, Battery, Load, GridTie:
		return true
	}
	return false
}

// Device is one plant element.
type Device struct {
	ID       string
	Kind     DeviceKind
	Capacity float64 // kW for sources/loads, kWh for batteries
	// Output is the current production (+) or draw (-) in kW.
	Output float64
	// Charge is the battery state of charge in kWh (batteries only).
	Charge float64
	// Online reports whether the device is commanded on.
	Online bool
}

// Telemetry is a plant-wide snapshot.
type Telemetry struct {
	Generation    float64 // total production kW
	Consumption   float64 // total draw kW (positive)
	GridImport    float64 // net import from the grid kW (negative = export)
	BatteryCharge float64 // summed state of charge kWh
}

// Plant is the simulated microgrid. It is safe for concurrent use.
type Plant struct {
	mu      sync.Mutex
	clock   simtime.Clock
	trace   *script.Trace
	devices map[string]*Device
	sink    func(broker.Event)
	// lowBatteryThreshold (fraction of capacity) below which batteryLow
	// events are emitted on Tick.
	lowBatteryThreshold float64
}

// NewPlant creates a plant on the given clock. sink receives the plant's
// asynchronous events and may be nil. Event names: "deviceOffline",
// "deviceOnline", "batteryLow", "overload"; attribute key: "device".
func NewPlant(clock simtime.Clock, sink func(broker.Event)) *Plant {
	if clock == nil {
		clock = simtime.NewVirtual()
	}
	return &Plant{
		clock:               clock,
		trace:               &script.Trace{},
		devices:             make(map[string]*Device),
		sink:                sink,
		lowBatteryThreshold: 0.2,
	}
}

// Trace returns the recorded command trace.
func (p *Plant) Trace() *script.Trace { return p.trace }

func (p *Plant) emit(e broker.Event) {
	if p.sink != nil {
		p.sink(e)
	}
}

// RegisterDevice adds a device to the plant, initially offline.
func (p *Plant) RegisterDevice(id string, kind DeviceKind, capacity float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !ValidKind(kind) {
		return fmt.Errorf("microgrid: invalid device kind %q", kind)
	}
	if capacity <= 0 {
		return fmt.Errorf("microgrid: capacity must be positive, got %v", capacity)
	}
	if _, ok := p.devices[id]; ok {
		return fmt.Errorf("microgrid: device %q already registered", id)
	}
	d := &Device{ID: id, Kind: kind, Capacity: capacity}
	if kind == Battery {
		d.Charge = capacity / 2 // delivered half charged
	}
	p.devices[id] = d
	p.trace.RecordOp("registerDevice", "device:"+id, "kind", string(kind), "capacity", capacity)
	return nil
}

// SetOnline switches a device on or off.
func (p *Plant) SetOnline(id string, online bool) error {
	p.mu.Lock()
	d, ok := p.devices[id]
	if !ok {
		p.mu.Unlock()
		return fmt.Errorf("microgrid: unknown device %q", id)
	}
	d.Online = online
	if !online {
		d.Output = 0
	}
	p.trace.RecordOp("setOnline", "device:"+id, "online", online)
	kind := "deviceOnline"
	if !online {
		kind = "deviceOffline"
	}
	p.mu.Unlock()
	// Emitted outside the lock so synchronous sinks may re-enter.
	p.emit(broker.NewEvent(kind, "device", id))
	return nil
}

// SetOutput commands a device's output (kW). Sources produce (positive),
// loads draw (negative). Battery output positive = discharging.
func (p *Plant) SetOutput(id string, kw float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	d, ok := p.devices[id]
	if !ok {
		return fmt.Errorf("microgrid: unknown device %q", id)
	}
	if !d.Online {
		return fmt.Errorf("microgrid: device %q is offline", id)
	}
	limit := d.Capacity
	if d.Kind == Battery {
		limit = d.Capacity // battery power limit equals capacity here
	}
	if kw > limit || kw < -limit {
		return fmt.Errorf("microgrid: output %v exceeds capacity %v of %q", kw, d.Capacity, id)
	}
	d.Output = kw
	p.trace.RecordOp("setOutput", "device:"+id, "kw", kw)
	return nil
}

// ShedLoad turns a load device's draw down to the given kW (must reduce).
func (p *Plant) ShedLoad(id string, toKW float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	d, ok := p.devices[id]
	if !ok {
		return fmt.Errorf("microgrid: unknown device %q", id)
	}
	if d.Kind != Load {
		return fmt.Errorf("microgrid: device %q is not a load", id)
	}
	if toKW > -d.Output {
		return fmt.Errorf("microgrid: shed target %v exceeds current draw %v", toKW, -d.Output)
	}
	d.Output = -toKW
	p.trace.RecordOp("shedLoad", "device:"+id, "kw", toKW)
	return nil
}

// Telemetry computes the current plant snapshot.
func (p *Plant) Telemetry() Telemetry {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.telemetryLocked()
}

func (p *Plant) telemetryLocked() Telemetry {
	var t Telemetry
	for _, id := range p.deviceIDsLocked() {
		d := p.devices[id]
		if !d.Online {
			continue
		}
		switch {
		case d.Kind == Load:
			t.Consumption += -d.Output
		case d.Output >= 0:
			t.Generation += d.Output
		default:
			t.Consumption += -d.Output // charging battery draws power
		}
		if d.Kind == Battery {
			t.BatteryCharge += d.Charge
		}
	}
	t.GridImport = t.Consumption - t.Generation
	return t
}

// Tick advances plant time by d: battery charge integrates output, and
// batteryLow events fire when state of charge crosses the threshold.
func (p *Plant) Tick(d time.Duration) {
	p.mu.Lock()
	hours := d.Hours()
	var pending []broker.Event
	for _, id := range p.deviceIDsLocked() {
		dev := p.devices[id]
		if dev.Kind != Battery || !dev.Online {
			continue
		}
		wasLow := dev.Charge < p.lowBatteryThreshold*dev.Capacity
		dev.Charge -= dev.Output * hours // discharging (positive output) drains
		if dev.Charge < 0 {
			dev.Charge = 0
			dev.Output = 0
		}
		if dev.Charge > dev.Capacity {
			dev.Charge = dev.Capacity
			dev.Output = 0
		}
		isLow := dev.Charge < p.lowBatteryThreshold*dev.Capacity
		if isLow && !wasLow {
			pending = append(pending, broker.NewEvent("batteryLow", "device", id))
		}
	}
	p.clock.Sleep(d)
	p.mu.Unlock()
	// Emitted outside the lock so synchronous sinks may re-enter.
	for _, e := range pending {
		p.emit(e)
	}
}

// Device returns a copy of the device state, or false when unknown.
func (p *Plant) Device(id string) (Device, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d, ok := p.devices[id]
	if !ok {
		return Device{}, false
	}
	return *d, true
}

// DeviceIDs returns all device IDs sorted.
func (p *Plant) DeviceIDs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.deviceIDsLocked()
}

func (p *Plant) deviceIDsLocked() []string {
	out := make([]string, 0, len(p.devices))
	for id := range p.devices {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
