package serve

import (
	"fmt"

	"github.com/mddsm/mddsm/internal/obs"
)

// ExportedTenant is everything a peer needs to adopt a tenant: which
// bundle rebuilds it, the quiesced checkpoint of its state (DLQ included),
// and the exact accounting ledger it accumulated so far. It is the unit of
// live migration and of failover replication in internal/cluster.
type ExportedTenant struct {
	Bundle   string
	Snapshot []byte
	Ledger   Accounting
}

// Export quiesces a tenant and removes it from this server, returning the
// package a peer adopts. The returned ledger folds in anything the tenant
// carried from previous homes, so ledgers never double-count across a
// chain of migrations. A parked tenant exports its parked checkpoint
// as-is (it is already a quiesced cut).
func (s *Server) Export(name string) (ExportedTenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ExportedTenant{}, fmt.Errorf("serve: server closed")
	}
	var (
		bundle string
		snap   []byte
	)
	if t, ok := s.tenants[name]; ok {
		var err error
		snap, err = t.quiesce()
		if err != nil {
			return ExportedTenant{}, fmt.Errorf("serve: export %s: %w", name, err)
		}
		bundle = t.bundle
	} else if p, ok := s.parked[name]; ok {
		bundle, snap = p.bundle, p.snapshot
	} else {
		return ExportedTenant{}, fmt.Errorf("serve: %w %q", ErrNoTenant, name)
	}
	ledger, err := s.accountingLocked(name)
	if err != nil {
		return ExportedTenant{}, err
	}
	delete(s.tenants, name)
	delete(s.parked, name)
	delete(s.carried, name)
	s.gResident.Set(int64(len(s.tenants)))
	s.gParked.Set(int64(len(s.parked)))
	return ExportedTenant{Bundle: bundle, Snapshot: snap, Ledger: ledger}, nil
}

// Adopt installs an exported tenant on this server. The checkpoint is
// parked, not restored — the first frame naming the tenant rehydrates it
// through domains.Restore, so adoption is cheap and mass failover does not
// stampede the target. The carried ledger is recorded and folded into the
// tenant's Accounting from now on.
func (s *Server) Adopt(name string, exp ExportedTenant) error {
	if name == "" {
		return fmt.Errorf("serve: tenant name must not be empty")
	}
	if exp.Bundle == "" {
		return fmt.Errorf("serve: adopt %s: bundle must not be empty", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("serve: server closed")
	}
	if _, ok := s.tenants[name]; ok {
		return fmt.Errorf("serve: tenant %q exists", name)
	}
	if _, ok := s.parked[name]; ok {
		return fmt.Errorf("serve: tenant %q exists (parked)", name)
	}
	s.parked[name] = &parked{bundle: exp.Bundle, snapshot: exp.Snapshot}
	s.carried[name] = exp.Ledger
	s.gParked.Set(int64(len(s.parked)))
	return nil
}

// Replica returns the tenant's adoption package without removing it. A
// resident tenant is evicted first — a quiesced, exact cut, transparently
// rehydrated on its next touch — so the replica's snapshot and ledger are
// mutually consistent. Cluster nodes push replicas to their failover
// successor so a crashed node's tenants restart from the last replica
// instead of from nothing.
func (s *Server) Replica(name string) (ExportedTenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ExportedTenant{}, fmt.Errorf("serve: server closed")
	}
	if _, ok := s.tenants[name]; ok {
		if err := s.evictLocked(name); err != nil {
			return ExportedTenant{}, fmt.Errorf("serve: replica %s: %w", name, err)
		}
	}
	p, ok := s.parked[name]
	if !ok {
		return ExportedTenant{}, fmt.Errorf("serve: %w %q", ErrNoTenant, name)
	}
	ledger, err := s.accountingLocked(name)
	if err != nil {
		return ExportedTenant{}, err
	}
	snap := make([]byte, len(p.snapshot))
	copy(snap, p.snapshot)
	return ExportedTenant{Bundle: p.bundle, Snapshot: snap, Ledger: ledger}, nil
}

// Forget drops a tenant without exporting it: a resident platform is
// stopped (drained, exact accounting) and discarded, a parked checkpoint
// deleted. The cluster uses it to retire a stale replica once the
// authoritative copy has moved on — the replica's numbers are a copy, not
// a second life, so they must not survive into any ledger.
func (s *Server) Forget(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, live := s.tenants[name]
	_, sleeping := s.parked[name]
	if !live && !sleeping {
		return fmt.Errorf("serve: %w %q", ErrNoTenant, name)
	}
	if live {
		t.ops.Lock() // retire the platform once in-flight operations finish
		t.inst.Platform.Stop()
	}
	delete(s.tenants, name)
	delete(s.parked, name)
	delete(s.carried, name)
	s.gResident.Set(int64(len(s.tenants)))
	s.gParked.Set(int64(len(s.parked)))
	return nil
}

// Redeliver replays the tenant's dead-letter queue synchronously into its
// Broker layer, rehydrating the tenant if it was parked. Failover uses it
// after adoption: the DLQ rode along in the checkpoint, so redelivery on
// the new home picks up exactly where the dead node left off.
func (s *Server) Redeliver(name string) (redelivered, requeued int, err error) {
	t, err := s.acquire(name)
	if err != nil {
		return 0, 0, err
	}
	defer t.ops.RUnlock()
	rd, rq := t.inst.Platform.Redeliver()
	return rd, rq, nil
}

// Attrs flattens the ledger for the wire (control-frame attribute maps).
func (a Accounting) Attrs() map[string]any {
	return map[string]any{
		"bundle":       a.Bundle,
		"posted":       a.Posted,
		"delivered":    a.Delivered,
		"failures":     a.Failures,
		"deadlettered": a.DeadLettered,
		"dropped":      a.Dropped,
		"rejected":     a.Rejected,
	}
}

// AccountingFromAttrs rebuilds a ledger from a wire attribute map (JSON
// numbers arrive as float64).
func AccountingFromAttrs(m map[string]any) Accounting {
	num := func(k string) int64 {
		switch v := m[k].(type) {
		case float64:
			return int64(v)
		case int64:
			return v
		case int:
			return int64(v)
		default:
			return 0
		}
	}
	b, _ := m["bundle"].(string)
	return Accounting{
		Bundle:       b,
		Posted:       num("posted"),
		Delivered:    num("delivered"),
		Failures:     num("failures"),
		DeadLettered: num("deadlettered"),
		Dropped:      num("dropped"),
		Rejected:     num("rejected"),
	}
}

// accountingLocked is Accounting with s.mu already held.
func (s *Server) accountingLocked(name string) (Accounting, error) {
	var (
		to     *obs.Obs
		bundle string
		live   bool
	)
	if t, ok := s.tenants[name]; ok {
		to, bundle, live = t.obs, t.bundle, true
	} else if p, ok := s.parked[name]; ok {
		to, bundle = p.obs, p.bundle
	} else {
		return Accounting{}, fmt.Errorf("serve: %w %q", ErrNoTenant, name)
	}
	a := Accounting{Bundle: bundle, Resident: live}
	if to != nil {
		m := to.MetricsOf()
		a.Posted = m.CounterValue(obs.MEventsPosted)
		a.Delivered = m.CounterValue(obs.MEventsDelivered)
		a.Failures = m.CounterValue(obs.MDeliverFailures)
		a.DeadLettered = m.CounterValue(obs.MEventsDeadLettered)
		a.Dropped = m.CounterValue(obs.MEventsDropped)
		a.Rejected = m.CounterValue(obs.MEventsRejected)
	}
	if c, ok := s.carried[name]; ok {
		a = a.Add(c)
	}
	return a, nil
}
