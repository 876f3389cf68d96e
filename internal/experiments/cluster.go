package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	mrand "math/rand"
	"os"
	"sort"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/cluster"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/remote"
	"github.com/mddsm/mddsm/internal/serve"
)

// The clustered-broker benchmark: N mddsm-serve nodes joined into one
// logical broker over loopback TCP, measured for admission latency and
// throughput when entry node and owning node differ, plus the cost of one
// live migration and of a full node-kill failover. mddsm-bench prints the
// table and, with -json, writes BENCH_cluster.json for CI and
// EXPERIMENTS.md to track.

// clusterScales are the node counts the benchmark steps through.
var clusterScales = []int{2, 3, 5}

const (
	clusterTenants         = 12
	clusterEventsPerTenant = 150
	clusterSeed            = 42
)

// ClusterScaleResult is one scale step: a cluster of Nodes members under
// cross-node event load.
type ClusterScaleResult struct {
	Nodes           int     `json:"nodes"`
	Tenants         int     `json:"tenants"`
	Events          int     `json:"events"`
	EventsPerSec    float64 `json:"events_per_sec"`
	P50Ns           int64   `json:"post_p50_ns"`
	P99Ns           int64   `json:"post_p99_ns"`
	Forwarded       int64   `json:"forwarded"`
	ForwardedFrac   float64 `json:"forwarded_frac"`
	MigrationNs     int64   `json:"migration_ns"`
	FailoverNs      int64   `json:"failover_ns"`
	Adoptions       int64   `json:"adoptions"`
	AccountingExact bool    `json:"accounting_exact"`
}

// ClusterReport is the full machine-readable record.
type ClusterReport struct {
	Seed            int64                `json:"seed"`
	Tenants         int                  `json:"tenants"`
	EventsPerTenant int                  `json:"events_per_tenant"`
	Scales          []ClusterScaleResult `json:"scales"`
}

// benchRouter defers routing to a Node created after the wire server (the
// node needs every peer's bound address).
type benchRouter struct{ n *cluster.Node }

func (r *benchRouter) Route(tenant string) (remote.Endpoint, error) {
	if r.n == nil {
		return nil, fmt.Errorf("node not ready")
	}
	return r.n.Route(tenant)
}

func (r *benchRouter) Control(verb, tenant string, args map[string]any) (map[string]any, error) {
	if r.n == nil {
		return nil, fmt.Errorf("node not ready")
	}
	return r.n.Control(verb, tenant, args)
}

type benchMember struct {
	id   string
	srv  *serve.Server
	node *cluster.Node
	wire *remote.Server
	obs  *obs.Obs
}

func (m *benchMember) kill() {
	m.wire.Close()
	m.node.Close()
	m.srv.Close()
}

func startBenchCluster(count int, seed int64) ([]*benchMember, error) {
	routers := make([]*benchRouter, count)
	members := make([]*benchMember, count)
	peers := make([]cluster.Peer, count)
	for i := range members {
		routers[i] = &benchRouter{}
		wire, err := remote.NewRouterServer(routers[i], "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		id := fmt.Sprintf("n%d", i)
		peers[i] = cluster.Peer{ID: id, Addr: wire.Addr()}
		members[i] = &benchMember{id: id, wire: wire}
	}
	for i := range members {
		o := obs.New()
		srv := serve.NewServer(serve.Config{Obs: o})
		node, err := cluster.New(srv, cluster.Config{
			NodeID:       members[i].id,
			Peers:        peers,
			SuspectAfter: 2,
			Seed:         seed + int64(i),
			Obs:          o,
		})
		if err != nil {
			return nil, err
		}
		members[i].srv, members[i].node, members[i].obs = srv, node, o
		routers[i].n = node
	}
	for _, m := range members {
		m.node.Tick()
	}
	return members, nil
}

func drainBenchForwards(members []*benchMember) error {
	for i := 0; i < 200; i++ {
		busy := false
		for _, m := range members {
			m.node.RedeliverForwards()
			m.node.Flush()
			if m.node.Pending() > 0 || len(m.node.DeadForwards()) > 0 {
				busy = true
			}
		}
		if !busy {
			return nil
		}
		for _, m := range members {
			m.node.Tick()
		}
	}
	return fmt.Errorf("cluster bench: forward queues never drained")
}

// percentile returns the p-quantile of sorted latencies.
func percentile(sorted []time.Duration, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx].Nanoseconds()
}

// measureClusterScale runs one node-count step.
func measureClusterScale(nodes int) (ClusterScaleResult, error) {
	res := ClusterScaleResult{Nodes: nodes, Tenants: clusterTenants}
	members, err := startBenchCluster(nodes, clusterSeed)
	if err != nil {
		return res, err
	}
	closed := false
	defer func() {
		if !closed {
			for _, m := range members {
				m.kill()
			}
		}
	}()

	tenants := make([]string, clusterTenants)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("t%03d", i)
		if _, err := members[0].node.Control("create", tenants[i], map[string]any{"bundle": "cml"}); err != nil {
			return res, err
		}
	}

	// Cross-node load: every event enters through a random member, so a
	// (nodes-1)/nodes fraction of posts must cross the wire to its owner.
	rnd := mrand.New(mrand.NewSource(clusterSeed))
	total := clusterTenants * clusterEventsPerTenant
	lat := make([]time.Duration, 0, total)
	ev := broker.Event{Name: "telemetry", Attrs: map[string]any{"load": 1.0}}
	start := time.Now()
	for i := 0; i < clusterEventsPerTenant; i++ {
		for _, name := range tenants {
			entry := members[rnd.Intn(len(members))]
			t0 := time.Now()
			if err := entry.node.PostEvent(name, ev); err != nil {
				return res, fmt.Errorf("cluster bench: %d nodes: %w", nodes, err)
			}
			lat = append(lat, time.Since(t0))
		}
	}
	if err := drainBenchForwards(members); err != nil {
		return res, err
	}
	wall := time.Since(start)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res.Events = total
	res.EventsPerSec = float64(total) / wall.Seconds()
	res.P50Ns = percentile(lat, 0.50)
	res.P99Ns = percentile(lat, 0.99)
	for _, m := range members {
		res.Forwarded += m.obs.MetricsOf().CounterValue(obs.MClusterForwardsSent)
	}
	res.ForwardedFrac = float64(res.Forwarded) / float64(total)

	// One live migration: quiesce -> transfer -> re-route, timed
	// end-to-end from the source node.
	mig := tenants[0]
	src, dst := members[0], members[1]
	if owner := members[0].node.Owner(mig); owner != src.id {
		for _, m := range members {
			if m.id == owner {
				src = m
			}
		}
		dst = members[0]
	}
	t0 := time.Now()
	if err := src.node.Migrate(mig, dst.id); err != nil {
		return res, fmt.Errorf("cluster bench: migrate: %w", err)
	}
	res.MigrationNs = time.Since(t0).Nanoseconds()

	// Failover: replicate everything, kill one member, time until every
	// tenant is adopted and reachable on the survivors.
	for _, m := range members {
		if err := m.node.ReplicateAll(); err != nil {
			return res, err
		}
	}
	victim := members[len(members)-1]
	if victim == dst { // keep the freshly migrated tenant's home alive
		victim = members[len(members)-2]
	}
	survivors := make([]*benchMember, 0, len(members)-1)
	for _, m := range members {
		if m != victim {
			survivors = append(survivors, m)
		}
	}
	t0 = time.Now()
	victim.kill()
	for i := 0; ; i++ {
		for _, m := range survivors {
			m.node.Tick()
		}
		hosted := 0
		for _, m := range survivors {
			hosted += len(m.srv.Tenants())
		}
		if hosted == clusterTenants {
			break
		}
		if i > 200 {
			return res, fmt.Errorf("cluster bench: failover never completed (%d/%d tenants hosted)", hosted, clusterTenants)
		}
	}
	res.FailoverNs = time.Since(t0).Nanoseconds()
	for _, m := range survivors {
		res.Adoptions += m.obs.MetricsOf().CounterValue(obs.MClusterAdoptions)
	}

	// Cluster-wide exact accounting after the full life-cycle: every post
	// is delivered, failed, dead-lettered, or dropped exactly once.
	res.AccountingExact = true
	var posted int64
	for _, name := range tenants {
		var home *benchMember
		for _, m := range survivors {
			for _, hosted := range m.srv.Tenants() {
				if hosted == name {
					home = m
				}
			}
		}
		if home == nil {
			res.AccountingExact = false
			continue
		}
		_ = home.srv.Evict(name) // quiesce for an exact cut; may be parked already
		a, err := home.srv.Accounting(name)
		if err != nil || !a.Exact() {
			res.AccountingExact = false
			continue
		}
		posted += a.Posted
	}
	if posted != int64(total) {
		res.AccountingExact = false
	}

	for _, m := range survivors {
		m.kill()
	}
	closed = true
	return res, nil
}

// MeasureCluster runs the node-count ladder.
func MeasureCluster() (*ClusterReport, error) {
	rep := &ClusterReport{
		Seed:            clusterSeed,
		Tenants:         clusterTenants,
		EventsPerTenant: clusterEventsPerTenant,
	}
	for _, n := range clusterScales {
		res, err := measureClusterScale(n)
		if err != nil {
			return nil, err
		}
		rep.Scales = append(rep.Scales, res)
	}
	return rep, nil
}

// ReportCluster prints the clustered-broker table and, when jsonPath is
// non-empty, writes the machine-readable record there.
func ReportCluster(w io.Writer, jsonPath string) error {
	rep, err := MeasureCluster()
	if err != nil {
		return err
	}
	t := &Table{
		Title:   "Cluster — multi-node broker: cross-node delivery, migration, failover",
		Columns: []string{"nodes", "events", "events/sec", "post p50", "post p99", "fwd%", "migration", "failover", "exact"},
	}
	for _, sc := range rep.Scales {
		exact := "yes"
		if !sc.AccountingExact {
			exact = "NO"
		}
		t.AddRow(fmt.Sprintf("%d", sc.Nodes), fmt.Sprintf("%d", sc.Events),
			fmt.Sprintf("%.0f", sc.EventsPerSec),
			time.Duration(sc.P50Ns).String(),
			time.Duration(sc.P99Ns).String(),
			fmt.Sprintf("%.0f%%", sc.ForwardedFrac*100),
			time.Duration(sc.MigrationNs).String(),
			time.Duration(sc.FailoverNs).String(),
			exact)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d tenants, %d events/tenant; every event enters through a random member", rep.Tenants, rep.EventsPerTenant),
		"fwd% = fraction of posts that crossed the wire to the owning node (at-least-once, deduped)",
		"failover = node kill -> death declared -> all tenants adopted from replicas on the survivors",
		"exact = cluster-wide posted = delivered + failures + dead-lettered + dropped after the full life-cycle")
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
