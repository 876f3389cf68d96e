package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
	_ "github.com/mddsm/mddsm/internal/domains/all"
	"github.com/mddsm/mddsm/internal/serve"
)

// The platform-server capacity benchmark: how many resident tenant
// platforms one mddsm-serve process sustains while event admission stays
// inside a p99 latency SLO. mddsm-bench prints the table and, with -json,
// writes the machine-readable record (BENCH_serve.json) that CI and
// EXPERIMENTS.md track across revisions.

// ServeSLO is the admission-latency service-level objective: the p99
// PostEvent latency every scale step is judged against.
const ServeSLO = 2 * time.Millisecond

// serveScales are the resident-tenant counts the benchmark steps through.
var serveScales = []int{1, 8, 25, 50}

// serveEventsPerTenant is the event load posted per resident tenant.
const serveEventsPerTenant = 200

// ServeScaleResult is one scale step: N resident platforms under event
// load.
type ServeScaleResult struct {
	Tenants      int     `json:"tenants"`
	Events       int     `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	P50Ns        int64   `json:"post_p50_ns"`
	P99Ns        int64   `json:"post_p99_ns"`
	SLOMet       bool    `json:"slo_met"`
}

// ServeReport is the full machine-readable record.
type ServeReport struct {
	SLONs              int64              `json:"slo_ns"`
	EventsPerTenant    int                `json:"events_per_tenant"`
	Scales             []ServeScaleResult `json:"scales"`
	RehydrateRoundtrip int64              `json:"rehydrate_roundtrip_ns"`
}

// percentile returns the p-quantile of sorted latencies.
func percentile(sorted []time.Duration, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx].Nanoseconds()
}

// MeasureServe runs the capacity ladder: at each scale it provisions that
// many tenants (alternating cml and mgrid bundles), posts
// serveEventsPerTenant events per tenant through the admission path, and
// records the post-latency distribution and the sustained throughput
// including the final drain. The largest scale also measures one
// evict/rehydrate roundtrip.
func MeasureServe() (*ServeReport, error) {
	rep := &ServeReport{SLONs: ServeSLO.Nanoseconds(), EventsPerTenant: serveEventsPerTenant}
	for _, n := range serveScales {
		s := serve.NewServer(serve.Config{MaxResident: n})
		names := make([]string, n)
		for i := range names {
			bundle := "cml"
			if i%2 == 1 {
				bundle = "mgrid"
			}
			names[i] = fmt.Sprintf("t%03d", i)
			if err := s.Create(names[i], bundle); err != nil {
				s.Close()
				return nil, err
			}
		}
		total := n * serveEventsPerTenant
		lat := make([]time.Duration, 0, total)
		ev := broker.Event{Name: "telemetry", Attrs: map[string]any{"load": 1.0}}
		start := time.Now()
		for i := 0; i < total; i++ {
			t0 := time.Now()
			if err := s.PostEvent(names[i%n], ev); err != nil {
				s.Close()
				return nil, fmt.Errorf("serve bench: %d tenants: %w", n, err)
			}
			lat = append(lat, time.Since(t0))
		}
		s.Close() // graceful drain: throughput covers posting + draining
		wall := time.Since(start)
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p99 := percentile(lat, 0.99)
		rep.Scales = append(rep.Scales, ServeScaleResult{
			Tenants:      n,
			Events:       total,
			EventsPerSec: float64(total) / wall.Seconds(),
			P50Ns:        percentile(lat, 0.50),
			P99Ns:        p99,
			SLOMet:       p99 <= rep.SLONs,
		})
	}

	// Eviction latency at the largest scale.
	s := serve.NewServer(serve.Config{MaxResident: serveScales[len(serveScales)-1]})
	defer s.Close()
	for i := 0; i < serveScales[len(serveScales)-1]; i++ {
		if err := s.Create(fmt.Sprintf("t%03d", i), "cml"); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	if err := s.Evict("t000"); err != nil {
		return nil, err
	}
	if err := s.PostEvent("t000", broker.Event{Name: "streamFailed", Attrs: map[string]any{}}); err != nil {
		return nil, err
	}
	rep.RehydrateRoundtrip = time.Since(t0).Nanoseconds()
	return rep, nil
}

// ReportServe prints the capacity table and, when jsonPath is non-empty,
// writes the machine-readable record there.
func ReportServe(w io.Writer, jsonPath string) error {
	rep, err := MeasureServe()
	if err != nil {
		return err
	}
	t := &Table{
		Title:   fmt.Sprintf("Serve — multi-tenant capacity (p99 admission SLO %v)", ServeSLO),
		Columns: []string{"tenants", "events", "events/sec", "post p50", "post p99", "SLO"},
	}
	for _, sc := range rep.Scales {
		slo := "met"
		if !sc.SLOMet {
			slo = "MISSED"
		}
		t.AddRow(fmt.Sprintf("%d", sc.Tenants), fmt.Sprintf("%d", sc.Events),
			fmt.Sprintf("%.0f", sc.EventsPerSec),
			fmt.Sprintf("%s", time.Duration(sc.P50Ns)),
			fmt.Sprintf("%s", time.Duration(sc.P99Ns)),
			slo)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("evict → touch → rehydrate roundtrip: %s", time.Duration(rep.RehydrateRoundtrip)),
		"throughput includes the graceful drain; admission latency is the client-visible PostEvent path")
	t.Print(w)
	if jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n\n", jsonPath)
	}
	return nil
}
