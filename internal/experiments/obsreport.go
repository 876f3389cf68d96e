package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/domains/cml"
	"github.com/mddsm/mddsm/internal/fault"
	"github.com/mddsm/mddsm/internal/obs"
)

// ObsPhase aggregates the span counts of one engine phase (the layer
// prefix of the span name: ui, synthesis, controller, broker, ...).
type ObsPhase struct {
	Phase string
	Spans map[string]int64
	Total int64
}

// MeasureObs runs the canonical two-party audio session through a fully
// instrumented CVM — model submission down the four layers, then an
// asynchronous stream failure back up — and returns the recorded span
// counts grouped by phase.
func MeasureObs() ([]ObsPhase, *obs.Obs, error) {
	return measureObs(nil)
}

// measureObs runs the canonical scenario, optionally with an armed fault
// injector (and the default resilience policy, so injected transients are
// retried rather than failing the run).
func measureObs(inj *fault.Injector) ([]ObsPhase, *obs.Obs, error) {
	o := obs.New()
	cfg := domains.Config{Obs: o}
	if inj != nil {
		inj.BindMetrics(o.MetricsOf())
		cfg.Injector, cfg.Resilience = inj, fault.DefaultResilience()
	}
	vm, err := cml.New(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("obs: %w", err)
	}
	d := vm.Platform.UI.NewDraft()
	d.MustAdd("alice", "Person").SetAttr("name", "Alice")
	d.MustAdd("bob", "Person").SetAttr("name", "Bob")
	d.MustAdd("s1", "Session").
		SetRef("participants", "alice", "bob").
		SetRef("streams", "a1")
	d.MustAdd("a1", "Stream").
		SetAttr("media", "audio").
		SetAttr("bandwidth", 64).
		SetAttr("session", "s1")
	if _, err := d.Submit(); err != nil {
		return nil, nil, fmt.Errorf("obs: submit: %w", err)
	}
	if err := vm.Platform.DeliverEvent(broker.Event{
		Name:  "streamFailed",
		Attrs: map[string]any{"session": "s1", "stream": "a1"},
	}); err != nil {
		return nil, nil, fmt.Errorf("obs: event: %w", err)
	}

	byPhase := map[string]*ObsPhase{}
	for name, n := range o.TracerOf().Counts() {
		phase, _, _ := strings.Cut(name, ".")
		p := byPhase[phase]
		if p == nil {
			p = &ObsPhase{Phase: phase, Spans: map[string]int64{}}
			byPhase[phase] = p
		}
		p.Spans[name] += n
		p.Total += n
	}
	out := make([]ObsPhase, 0, len(byPhase))
	for _, p := range byPhase {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Phase < out[j].Phase })
	return out, o, nil
}

// ReportObs prints the per-phase span counts of one instrumented
// submission+recovery cycle, followed by the full snapshot.
func ReportObs(w io.Writer) error {
	phases, o, err := MeasureObs()
	if err != nil {
		return err
	}
	t := Table{
		Title:   "Obs — per-phase span counts for one submission + recovery cycle",
		Columns: []string{"phase", "spans", "breakdown"},
		Notes: []string{
			"spans recorded by the layer-spanning tracer; phase = span name prefix",
			"ui.submit -> synthesis.submit -> controller.script -> broker.call -> resource.execute",
		},
	}
	for _, p := range phases {
		names := make([]string, 0, len(p.Spans))
		for n := range p.Spans {
			names = append(names, n)
		}
		sort.Strings(names)
		parts := make([]string, 0, len(names))
		for _, n := range names {
			parts = append(parts, fmt.Sprintf("%s=%d", n, p.Spans[n]))
		}
		t.AddRow(p.Phase, fmt.Sprintf("%d", p.Total), strings.Join(parts, " "))
	}
	t.Print(w)
	fmt.Fprintln(w, o.MetricsOf().Snapshot())
	return nil
}

// ReportObsFaults runs the instrumented scenario with faults injected per
// spec ("seed=N,site:kind[:p=..][:d=..][:n=..],...") and prints the
// resilience counters plus the deterministic fault schedule. The same seed
// reproduces the same schedule.
func ReportObsFaults(w io.Writer, spec string) error {
	inj, err := fault.Parse(spec)
	if err != nil {
		return fmt.Errorf("faults: %w", err)
	}
	phases, o, err := measureObs(inj)
	if err != nil {
		return fmt.Errorf("faults (seed=%d, %d injected): %w", inj.Seed(), inj.Injected(), err)
	}
	t := Table{
		Title:   "Obs — per-phase span counts under fault injection",
		Columns: []string{"phase", "spans"},
		Notes: []string{
			fmt.Sprintf("faults: %s", spec),
			fmt.Sprintf("seed=%d injected=%d (schedule below is reproducible from the seed)", inj.Seed(), inj.Injected()),
		},
	}
	for _, p := range phases {
		t.AddRow(p.Phase, fmt.Sprintf("%d", p.Total))
	}
	t.Print(w)
	fmt.Fprintln(w, o.MetricsOf().Snapshot())
	fmt.Fprintln(w, "# fault schedule")
	for _, line := range inj.Schedule() {
		fmt.Fprintln(w, line)
	}
	return nil
}
